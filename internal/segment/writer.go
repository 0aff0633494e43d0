package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"sepdl/internal/database"
	"sepdl/internal/keys"
	"sepdl/internal/rel"
)

// Build writes the checkpoint state as a segment file at path through
// publish (tmp → fsync → rename → directory fsync), so a crash leaves
// either no file or a complete one under path.
func Build(path string, state database.CheckpointState, blockBytes int) error {
	return publish(path, Hooks{}, segmentBody(state, blockBytes))
}

// segmentBody returns publish's fill function for a segment holding state:
// header, symbol blocks, data blocks per predicate, index, footer.
func segmentBody(state database.CheckpointState, blockBytes int) func(w *segWriter) error {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	return func(w *segWriter) error {
		w.write([]byte(headMagic))
		names := state.SymbolTable().Names()
		symBlocks := writeSymbols(w, names, blockBytes)

		var preds []*predMeta
		for _, pred := range state.Preds() {
			r := state.Relation(pred)
			if r == nil {
				continue
			}
			pm, err := writePred(w, pred, r, blockBytes)
			if err != nil {
				return err
			}
			preds = append(preds, pm)
		}

		idx := encodeIndex(len(names), symBlocks, preds)
		idxOff := w.off
		w.write(idx)
		var foot []byte
		foot = appendU64(foot, uint64(idxOff))
		foot = appendU32(foot, uint32(len(idx)))
		foot = appendU32(foot, crc32.Checksum(idx, castagnoli))
		foot = append(foot, tailMagic...)
		w.write(foot)
		return nil
	}
}

// writeSymbols chunks the interned names (in id order — ids are the
// values segment rows store) into length-prefixed blocks.
func writeSymbols(w *segWriter, names []string, blockBytes int) []blockMeta {
	var metas []blockMeta
	var buf []byte
	var count uint32
	flush := func() {
		if count == 0 {
			return
		}
		metas = append(metas, blockMeta{
			off: w.off, len: uint32(len(buf)),
			crc: crc32.Checksum(buf, castagnoli), count: count,
		})
		w.write(buf)
		buf, count = buf[:0], 0
	}
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		count++
		if len(buf) >= blockBytes {
			flush()
		}
	}
	flush()
	return metas
}

// writePred streams pred's tuples — the sorted cold base merged with the
// sorted overlay — into fixed-width data blocks. The merge never needs
// the whole relation in RAM: the cold side streams block by block off the
// previous segment, the overlay (bounded by the memtable budget) is the
// only part sorted here.
func writePred(w *segWriter, pred string, r *rel.Relation, blockBytes int) (*predMeta, error) {
	arity := r.Arity()
	pm := &predMeta{name: pred, arity: arity}
	overlay := r.OverlayRows() // a fresh slice: sorted in place
	keys.Sort(overlay)

	var buf []byte
	var count uint32
	var first, last rel.Tuple
	flush := func() {
		if count == 0 {
			return
		}
		pm.blocks = append(pm.blocks, blockMeta{
			off: w.off, len: uint32(len(buf)),
			crc: crc32.Checksum(buf, castagnoli), count: count,
			first: first.Clone(), last: last.Clone(),
		})
		w.write(buf)
		buf, count, first = buf[:0], 0, nil
	}
	emit := func(t rel.Tuple) {
		pm.count++
		if arity == 0 {
			return // presence is carried by pm.count; there are no bytes
		}
		if first == nil {
			first = t
		}
		last = t
		buf = keys.AppendTuple(buf, t)
		count++
		if len(buf) >= blockBytes {
			flush()
		}
	}

	if base := r.Cold(); base != nil {
		cur := base.Scan(nil)
		ct, cok := cur.Next()
		for _, ot := range overlay {
			for cok && keys.Compare(ct, ot) < 0 {
				emit(ct)
				ct, cok = cur.Next()
			}
			emit(ot)
		}
		for cok {
			emit(ct)
			ct, cok = cur.Next()
		}
	} else {
		for _, t := range overlay {
			emit(t)
		}
	}
	flush()
	if pm.count > math.MaxUint32 && arity > 0 {
		return nil, fmt.Errorf("segment: %s has %d tuples, beyond the block format's reach", pred, pm.count)
	}
	return pm, nil
}

// encodeIndex renders the symbol and predicate directories.
func encodeIndex(symCount int, symBlocks []blockMeta, preds []*predMeta) []byte {
	var b []byte
	b = appendU32(b, uint32(symCount))
	b = appendU32(b, uint32(len(symBlocks)))
	for _, m := range symBlocks {
		b = appendU64(b, uint64(m.off))
		b = appendU32(b, m.len)
		b = appendU32(b, m.crc)
		b = appendU32(b, m.count)
	}
	b = appendU32(b, uint32(len(preds)))
	for _, pm := range preds {
		b = appendU16(b, uint16(len(pm.name)))
		b = append(b, pm.name...)
		b = appendU32(b, uint32(pm.arity))
		b = appendU64(b, pm.count)
		b = appendU32(b, uint32(len(pm.blocks)))
		for _, m := range pm.blocks {
			b = appendU64(b, uint64(m.off))
			b = appendU32(b, m.len)
			b = appendU32(b, m.crc)
			b = appendU32(b, m.count)
			b = keys.AppendTuple(b, m.first)
			b = keys.AppendTuple(b, m.last)
		}
	}
	return b
}
