package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sepdl/internal/database"
	"sepdl/internal/rel"
)

// A checkpoint at WAL sequence seq is two files, keyed by the sequence
// their checkpoint covers (mirroring wal-%016d.log): the segment
// seg-%016d.seg holding the database, and the marker ckpt-%016d.ckpt
// committing it. The marker is published only after the segment is
// durable, so a marker never names a segment that did not finish; a
// segment without a marker is an orphan that recovery ignores and the
// next DropBelow removes.
//
// Marker format:
//
//	magic "sepdl-ckpt2\n"
//	u32le progLen | program text
//	u32le 0       (a fact-text length; always zero, the facts live in the segment)
//	u32le crc32c over everything between magic and crc
const (
	segPrefix    = "seg-"
	segSuffix    = ".seg"
	markerPrefix = "ckpt-"
	markerSuffix = ".ckpt"
	markerMagic  = "sepdl-ckpt2\n"
)

// recoverChunk is how many replayed facts the fact-by-fact recovery path
// applies between budget ticks.
const recoverChunk = 1 << 12

// Codec owns the checkpoints of a data directory: the WAL hands it the
// state to persist at a checkpoint and asks it, at open, for the newest
// checkpoint that verifies. A checkpoint's state is written as one
// sorted segment, recovery installs the segment's predicates as cold
// bases instead of replaying every fact, and the newest installed
// segment is exported as a ColdSet so the engine can rebase its
// relations after a flush.
//
// Superseded sets are retired, not closed: snapshots taken before a flush
// may still hold cursors into the previous segment, and the reader has no
// reference counting. Retired files can be unlinked by DropBelow (the
// open handle keeps the inode alive); the handles themselves are released
// at Close. The cost is one file handle per checkpoint per process run.
type Codec struct {
	dir        string
	blockBytes int
	cache      *Cache
	hooks      Hooks

	mu          sync.Mutex
	cur         *Set
	curSeq      uint64
	retired     []*Set
	builds      uint64
	buildErrors uint64
}

// NewCodec returns a codec writing and reading checkpoints in dir, every
// file write and fsync through hooks. cacheBytes <= 0 disables block
// retention; blockBytes <= 0 uses DefaultBlockBytes.
func NewCodec(dir string, cacheBytes int64, blockBytes int, hooks Hooks) *Codec {
	return &Codec{dir: dir, blockBytes: blockBytes, cache: NewCache(cacheBytes), hooks: hooks}
}

func (c *Codec) segPath(seq uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix))
}

func (c *Codec) markerPath(seq uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s%016d%s", markerPrefix, seq, markerSuffix))
}

// parseSeq extracts the sequence from a file name prefix%016dsuffix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, ch := range name[len(prefix) : len(prefix)+16] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(ch-'0')
	}
	return seq, true
}

// encodeMarker renders the checkpoint marker committing a segment whose
// checkpoint carries program.
func encodeMarker(program string) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(program)))
	body = append(body, program...)
	body = binary.LittleEndian.AppendUint32(body, 0)
	out := append([]byte(markerMagic), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
}

// decodeMarker validates a marker and returns its program.
func decodeMarker(data []byte) (string, error) {
	if len(data) < len(markerMagic)+12 || string(data[:len(markerMagic)]) != markerMagic {
		return "", fmt.Errorf("segment: checkpoint marker: bad header")
	}
	body := data[len(markerMagic) : len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return "", fmt.Errorf("segment: checkpoint marker: checksum mismatch")
	}
	progLen := uint64(binary.LittleEndian.Uint32(body))
	if 4+progLen+4 != uint64(len(body)) || binary.LittleEndian.Uint32(body[4+progLen:]) != 0 {
		return "", fmt.Errorf("segment: checkpoint marker: bad lengths")
	}
	return string(body[4 : 4+progLen]), nil
}

// Checkpoints lists the sequences that have a checkpoint marker, in
// ascending order, and removes the *.tmp files of publishes a crash cut
// short.
func (c *Codec) Checkpoints() ([]uint64, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(c.dir, e.Name()))
		} else if seq, ok := parseSeq(e.Name(), markerPrefix, markerSuffix); ok && seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Write publishes the checkpoint for seq: the segment built from state
// first, then, once the segment is durable, the marker recording program.
// Only then does the segment become the codec's current set.
func (c *Codec) Write(seq uint64, program string, state database.CheckpointState) error {
	set, err := c.write(seq, program, state)
	if err != nil {
		c.mu.Lock()
		c.buildErrors++
		c.mu.Unlock()
		return err
	}
	c.install(seq, set)
	c.mu.Lock()
	c.builds++
	c.mu.Unlock()
	return nil
}

func (c *Codec) write(seq uint64, program string, state database.CheckpointState) (*Set, error) {
	if err := publish(c.segPath(seq), c.hooks, segmentBody(state, c.blockBytes)); err != nil {
		return nil, err
	}
	set, err := Open(c.segPath(seq), c.cache)
	if err != nil {
		return nil, fmt.Errorf("segment: reopen just-built segment: %w", err)
	}
	marker := encodeMarker(program)
	if err := publish(c.markerPath(seq), c.hooks, func(w *segWriter) error {
		w.write(marker)
		return nil
	}); err != nil {
		set.Close()
		return nil, err
	}
	return set, nil
}

// install makes set the current set unless a newer sequence already is:
// checkpoints may finish out of order, and an older set installed last
// would make the engine rebase onto a segment missing the newer facts. The
// losing set is retired like any superseded one.
func (c *Codec) install(seq uint64, set *Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil && seq < c.curSeq {
		c.retired = append(c.retired, set)
		return
	}
	if c.cur != nil {
		c.retired = append(c.retired, c.cur)
	}
	c.cur, c.curSeq = set, seq
}

// Validate reads the marker for seq and fully verifies its segment
// (index, symbols, and every data block), installing the segment as
// current and returning the marker's program. Boot-time checkpoint
// selection calls it before trusting a checkpoint; any damage to either
// file makes the WAL fall back to an older checkpoint chain.
func (c *Codec) Validate(seq uint64) (program string, err error) {
	data, err := os.ReadFile(c.markerPath(seq))
	if err != nil {
		return "", err
	}
	if program, err = decodeMarker(data); err != nil {
		return "", err
	}
	set, err := Open(c.segPath(seq), c.cache)
	if err != nil {
		return "", err
	}
	if err := set.VerifyData(nil); err != nil {
		set.Close()
		return "", err
	}
	c.install(seq, set)
	return program, nil
}

// Recover installs the validated segment for seq into sink. A ColdSink
// gets the symbols plus one cold base per predicate — O(preds) work, no
// fact replay. A plain RecoverSink (an engine running with cold storage
// off — the in-RAM oracle mode) gets every tuple replayed as an AddFact,
// ticking the budget hook every recoverChunk facts.
func (c *Codec) Recover(seq uint64, sink database.RecoverSink, tick func() error) error {
	c.mu.Lock()
	set, curSeq := c.cur, c.curSeq
	c.mu.Unlock()
	if set == nil || curSeq != seq {
		return fmt.Errorf("segment: recover seq %d: validated segment is %d", seq, curSeq)
	}
	cold, isCold := sink.(database.ColdSink)
	if isCold {
		if err := cold.InstallSymbols(set.Symbols()); err != nil {
			return err
		}
	}
	syms := set.Symbols()
	for _, pred := range set.Preds() {
		table, arity, _ := set.Table(pred)
		if isCold {
			if err := cold.InstallCold(pred, arity, table); err != nil {
				return err
			}
			if tick != nil {
				if err := tick(); err != nil {
					return err
				}
			}
			continue
		}
		// Fact-by-fact fallback: re-intern through the sink.
		args := make([]string, arity)
		cur := table.Scan(nil)
		n := 0
		for t, ok := cur.Next(); ok; t, ok = cur.Next() {
			for i, v := range t {
				if int(v) >= len(syms) {
					return fmt.Errorf("segment: %s row references symbol %d of %d", pred, v, len(syms))
				}
				args[i] = syms[v]
			}
			if err := sink.AddFact(pred, args); err != nil {
				return err
			}
			if n++; n%recoverChunk == 0 && tick != nil {
				if err := tick(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// DropBelow removes the checkpoints below keep, markers before segments
// so no marker outlives its segment. Open handles over removed segments
// (retired sets) keep reading their unlinked inodes; the handles close
// with the codec.
func (c *Codec) DropBelow(keep uint64) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, kind := range [][2]string{{markerPrefix, markerSuffix}, {segPrefix, segSuffix}} {
		for _, e := range entries {
			if seq, ok := parseSeq(e.Name(), kind[0], kind[1]); ok && seq < keep {
				os.Remove(filepath.Join(c.dir, e.Name()))
			}
		}
	}
}

// ColdSet exposes the newest installed segment's predicates as cold
// bases, or nil before the first segment checkpoint.
func (c *Codec) ColdSet() database.ColdSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return nil
	}
	return &setDir{set: c.cur}
}

// setDir adapts a Set to database.ColdSet.
type setDir struct{ set *Set }

func (d *setDir) Preds() []string { return d.set.Preds() }

func (d *setDir) Cold(pred string) (rel.ColdBase, int, bool) {
	t, arity, ok := d.set.Table(pred)
	if !ok {
		return nil, 0, false
	}
	return t, arity, true
}

// Stats reports the segment tier's counters.
func (c *Codec) Stats() database.SegmentStats {
	var st database.SegmentStats
	if entries, err := os.ReadDir(c.dir); err == nil {
		for _, e := range entries {
			if _, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
				st.SegmentFiles++
			}
		}
	}
	c.mu.Lock()
	if c.cur != nil {
		st.SegmentTuples = c.cur.TupleCount()
	}
	st.SegmentBuilds, st.SegmentBuildErrors = c.builds, c.buildErrors
	c.mu.Unlock()
	st.BlockCacheHits, st.BlockCacheMisses, st.SegmentBytesRead = c.cache.Stats()
	return st
}

// Close releases every open set handle. Cold relations still referencing
// them will fail subsequent block reads — the engine closes its store
// only after draining queries.
func (c *Codec) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, s := range append(c.retired, c.cur) {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.cur, c.retired = nil, nil
	return first
}
