package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sepdl/internal/database"
	"sepdl/internal/rel"
)

// segPrefix/segSuffix name segment files seg-%016d.seg, keyed by the WAL
// sequence their checkpoint covers (mirroring wal-%016d.log).
const (
	segPrefix = "seg-"
	segSuffix = ".seg"
)

// recoverChunk is how many replayed facts the textual-fallback recovery
// path applies between budget ticks.
const recoverChunk = 1 << 12

// Codec implements the WAL's Checkpointer seam with segment files: a
// checkpoint's state is written as one sorted segment instead of a flat
// fact dump, recovery installs the segment's predicates as cold bases
// instead of replaying every fact, and the newest installed segment is
// exported as a ColdSet so the engine can rebase its relations after a
// flush.
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

	mu          sync.Mutex
	cur         *Set
	curSeq      uint64
	retired     []*Set
	builds      uint64
	buildErrors uint64
}

// NewCodec returns a codec writing and reading segments in dir.
// cacheBytes <= 0 disables block retention; blockBytes <= 0 uses
// DefaultBlockBytes.
func NewCodec(dir string, cacheBytes int64, blockBytes int) *Codec {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	return &Codec{dir: dir, blockBytes: blockBytes, cache: NewCache(cacheBytes)}
}

func (c *Codec) segPath(seq uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix))
}

// parseSeq extracts the sequence from a segment file name.
func parseSeq(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var seq uint64
	for _, ch := range name[len(segPrefix) : len(segPrefix)+16] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(ch-'0')
	}
	return seq, true
}

// Write builds the segment for seq from state and installs it as the
// codec's current set. The caller (the WAL) writes its checkpoint marker
// only after Write returns nil, so a crash between the two leaves an
// orphan segment recovery ignores and the next compaction removes.
func (c *Codec) Write(seq uint64, state database.CheckpointState) error {
	if err := Build(c.segPath(seq), state, c.blockBytes); err != nil {
		c.mu.Lock()
		c.buildErrors++
		c.mu.Unlock()
		return err
	}
	set, err := Open(c.segPath(seq), c.cache)
	if err != nil {
		c.mu.Lock()
		c.buildErrors++
		c.mu.Unlock()
		return fmt.Errorf("segment: reopen just-built segment: %w", err)
	}
	c.install(seq, set)
	c.mu.Lock()
	c.builds++
	c.mu.Unlock()
	return nil
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

// Validate opens and fully verifies the segment for seq (index, symbols,
// and every data block), installing it as current on success. Boot-time
// checkpoint selection calls it before trusting a ckpt marker; any
// corruption makes the WAL fall back to the previous checkpoint chain.
func (c *Codec) Validate(seq uint64) error {
	set, err := Open(c.segPath(seq), c.cache)
	if err != nil {
		return err
	}
	if err := set.VerifyData(nil); err != nil {
		set.Close()
		return err
	}
	c.install(seq, set)
	return nil
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
		// Textual fallback: re-intern through the sink fact by fact.
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

// DropBelow removes segment files for sequences below keep. Open handles
// over removed files (retired sets) keep reading their unlinked inodes;
// the handles close with the codec.
func (c *Codec) DropBelow(keep uint64) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name()); ok && seq < keep {
			os.Remove(filepath.Join(c.dir, e.Name()))
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
			if _, ok := parseSeq(e.Name()); ok {
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
