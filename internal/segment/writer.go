package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"sepdl/internal/database"
	"sepdl/internal/keys"
	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// Build writes the checkpoint state as a segment file at path, following
// the WAL's crash-safety discipline: the bytes are assembled in a *.tmp
// sibling, fsynced, renamed over path, and the directory entry fsynced —
// in that order, so a crash at any point leaves either no file or a
// complete one, never a torn segment under the final name. On error the
// tmp file is removed and nothing remains under path.
func Build(path string, state database.CheckpointState, blockBytes int) (err error) {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: create %s: %w", tmp, err)
	}
	tok := leakcheck.OpenResource("segfile " + tmp)
	defer func() {
		if f != nil { // error path: release the handle and the tmp file
			f.Close()
			leakcheck.CloseResource(tok)
			os.Remove(tmp)
		}
	}()

	w := &segWriter{w: bufio.NewWriterSize(f, 1<<16)}
	w.write([]byte(headMagic))

	names := state.SymbolTable().Names()
	symBlocks := writeSymbols(w, names, blockBytes)

	var preds []*predMeta
	for _, pred := range state.Preds() {
		r := state.Relation(pred)
		if r == nil {
			continue
		}
		pm, perr := writePred(w, pred, r, blockBytes)
		if perr != nil {
			return perr
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

	if w.err != nil {
		return fmt.Errorf("segment: write %s: %w", tmp, w.err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("segment: flush %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("segment: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmp)
		leakcheck.CloseResource(tok)
		return fmt.Errorf("segment: close %s: %w", tmp, err)
	}
	f = nil
	leakcheck.CloseResource(tok)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: rename %s: %w", tmp, err)
	}
	return syncDir(filepath.Dir(path))
}

// segWriter tracks the absolute file offset and the first write error.
type segWriter struct {
	w   *bufio.Writer
	off int64
	err error
}

func (w *segWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	w.err = err
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

// syncDir fsyncs a directory so a just-renamed segment's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("segment: open dir %s: %w", dir, err)
	}
	tok := leakcheck.OpenResource("segdir " + dir)
	defer leakcheck.CloseResource(tok)
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("segment: sync dir %s: %w", dir, err)
	}
	return nil
}
