package segment

import (
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync/atomic"

	"sepdl/internal/keys"
	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// setIDs hands every open Set a process-unique id namespacing its blocks
// in the shared cache.
var setIDs atomic.Uint64

// Set is one open segment file: the predicate directory plus the symbol
// table it was written under. All read methods are safe for concurrent
// use — the file is immutable and reads go through ReadAt.
type Set struct {
	f     *os.File
	path  string
	id    uint64
	tok   uint64
	cache *Cache
	syms  []string
	preds map[string]*predMeta
	order []string
}

// Open maps a segment file: the footer, index, and symbol blocks are read
// and CRC-checked eagerly (any corruption there is an open error, not a
// mid-query surprise); data blocks are checked lazily as ranges touch
// them — or all at once by VerifyData. cache may be shared across sets.
func Open(path string, cache *Cache) (_ *Set, err error) {
	if cache == nil {
		cache = NewCache(0) // counts reads but retains nothing
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	tok := leakcheck.OpenResource("segfile " + path)
	defer func() {
		if err != nil {
			f.Close()
			leakcheck.CloseResource(tok)
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segment: stat %s: %w", path, err)
	}
	size := fi.Size()
	if size < int64(len(headMagic))+footerLen {
		return nil, fmt.Errorf("segment: %s: %d bytes, shorter than header+footer", path, size)
	}
	head := make([]byte, len(headMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("segment: read %s header: %w", path, err)
	}
	if string(head) != headMagic {
		return nil, fmt.Errorf("segment: %s: bad header magic", path)
	}
	foot := make([]byte, footerLen)
	if _, err := f.ReadAt(foot, size-footerLen); err != nil {
		return nil, fmt.Errorf("segment: read %s footer: %w", path, err)
	}
	fr := &reader{b: foot}
	idxOff, idxLen, idxCRC := int64(fr.u64()), int64(fr.u32()), fr.u32()
	if string(fr.take(len(tailMagic))) != tailMagic {
		return nil, fmt.Errorf("segment: %s: bad tail magic", path)
	}
	if idxOff < int64(len(headMagic)) || idxOff+idxLen != size-footerLen {
		return nil, fmt.Errorf("segment: %s: index [%d, %d) out of bounds", path, idxOff, idxOff+idxLen)
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, idxOff); err != nil {
		return nil, fmt.Errorf("segment: read %s index: %w", path, err)
	}
	if crc32.Checksum(idx, castagnoli) != idxCRC {
		return nil, fmt.Errorf("segment: %s: index checksum mismatch", path)
	}
	s := &Set{f: f, path: path, id: setIDs.Add(1), tok: tok, cache: cache}
	if err := s.parseIndex(idx, idxOff); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Set) parseIndex(idx []byte, idxOff int64) error {
	r := &reader{b: idx}
	symCount := int(r.u32())
	nSymBlocks := int(r.u32())
	s.syms = make([]string, 0, symCount)
	var symBlocks []blockMeta
	for i := 0; i < nSymBlocks && r.err == nil; i++ {
		symBlocks = append(symBlocks, blockMeta{
			off: int64(r.u64()), len: r.u32(), crc: r.u32(), count: r.u32(),
		})
	}
	nPreds := int(r.u32())
	s.preds = make(map[string]*predMeta, nPreds)
	for i := 0; i < nPreds && r.err == nil; i++ {
		name := string(r.take(int(r.u16())))
		pm := &predMeta{name: name, arity: int(r.u32()), count: r.u64()}
		nBlocks := int(r.u32())
		pm.blocks = make([]blockMeta, 0, nBlocks)
		for j := 0; j < nBlocks && r.err == nil; j++ {
			m := blockMeta{off: int64(r.u64()), len: r.u32(), crc: r.u32(), count: r.u32()}
			m.first, _ = keys.DecodeTuple(r.take(pm.arity*keys.Width), pm.arity)
			m.last, _ = keys.DecodeTuple(r.take(pm.arity*keys.Width), pm.arity)
			if m.off < int64(len(headMagic)) || m.off+int64(m.len) > idxOff {
				r.err = fmt.Errorf("segment: %s: block [%d, %d) of %s out of bounds", s.path, m.off, m.off+int64(m.len), name)
			}
			pm.blocks = append(pm.blocks, m)
		}
		s.preds[name] = pm
		s.order = append(s.order, name)
	}
	if r.err == nil && r.off != len(idx) {
		r.err = fmt.Errorf("segment: %s: %d trailing index bytes", s.path, len(idx)-r.off)
	}
	if r.err != nil {
		return r.err
	}
	// Symbol blocks are decoded eagerly: recovery needs every name anyway,
	// and they are small next to the data.
	for _, m := range symBlocks {
		if m.off < int64(len(headMagic)) || m.off+int64(m.len) > idxOff {
			return fmt.Errorf("segment: %s: symbol block [%d, %d) out of bounds", s.path, m.off, m.off+int64(m.len))
		}
		payload := make([]byte, m.len)
		if _, err := s.f.ReadAt(payload, m.off); err != nil {
			return fmt.Errorf("segment: read %s symbols: %w", s.path, err)
		}
		if crc32.Checksum(payload, castagnoli) != m.crc {
			return fmt.Errorf("segment: %s: symbol block checksum mismatch", s.path)
		}
		// Every name is a substring of one string per block: recovery
		// allocates once per block, not once per symbol.
		blob, br := string(payload), &reader{b: payload}
		for i := uint32(0); i < m.count && br.err == nil; i++ {
			n := int(br.uvarint())
			if br.take(n); br.err == nil {
				s.syms = append(s.syms, blob[br.off-n:br.off])
			}
		}
		if br.err != nil {
			return fmt.Errorf("segment: %s: %v", s.path, br.err)
		}
	}
	if len(s.syms) != symCount {
		return fmt.Errorf("segment: %s: %d symbols decoded, index says %d", s.path, len(s.syms), symCount)
	}
	return nil
}

// VerifyData reads and CRC-checks every data block (the lazily checked
// part of the file), so boot-time checkpoint selection can reject a
// segment with rotted data the same way it rejects a torn flat
// checkpoint. tick, if non-nil, is called between blocks.
func (s *Set) VerifyData(tick func() error) error {
	for _, name := range s.order {
		pm := s.preds[name]
		for i := range pm.blocks {
			if _, err := s.readBlock(pm, i); err != nil {
				return err
			}
			if tick != nil {
				if err := tick(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Symbols returns the interned names in id order.
func (s *Set) Symbols() []string { return s.syms }

// Preds returns the predicate names in the segment's (sorted) order.
func (s *Set) Preds() []string { return s.order }

// Table returns the ColdBase view of pred's rows, with its arity, or
// ok=false if the segment has no such predicate.
func (s *Set) Table(pred string) (*Table, int, bool) {
	pm, ok := s.preds[pred]
	if !ok {
		return nil, 0, false
	}
	return &Table{s: s, pm: pm}, pm.arity, true
}

// TupleCount returns the total number of tuples across all predicates.
func (s *Set) TupleCount() uint64 {
	var n uint64
	for _, pm := range s.preds {
		n += pm.count
	}
	return n
}

// Path returns the file path the set was opened from.
func (s *Set) Path() string { return s.path }

// Close releases the file handle and purges the set's cached blocks.
// In-flight cursors over the set will fail their next block read.
func (s *Set) Close() error {
	if s.cache != nil {
		s.cache.dropSet(s.id)
	}
	err := s.f.Close()
	leakcheck.CloseResource(s.tok)
	return err
}

// readBlock fetches, CRC-checks, and decodes one data block into a flat
// row-major value array (row i is row(vals, arity, i)), consulting the
// shared cache first.
func (s *Set) readBlock(pm *predMeta, bi int) ([]rel.Value, error) {
	m := &pm.blocks[bi]
	if vals, ok := s.cache.get(s.id, m.off); ok {
		return vals, nil
	}
	payload := make([]byte, m.len)
	if _, err := s.f.ReadAt(payload, m.off); err != nil {
		return nil, fmt.Errorf("segment: read %s block at %d: %w", s.path, m.off, err)
	}
	s.cache.noteRead(uint64(m.len))
	if crc32.Checksum(payload, castagnoli) != m.crc {
		return nil, fmt.Errorf("segment: %s: block at %d: checksum mismatch", s.path, m.off)
	}
	if pm.arity == 0 || int(m.count)*pm.arity*keys.Width != len(payload) {
		return nil, fmt.Errorf("segment: %s: block at %d: %d bytes for %d arity-%d rows", s.path, m.off, len(payload), m.count, pm.arity)
	}
	vals := make([]rel.Value, int(m.count)*pm.arity)
	keys.DecodeValues(vals, payload)
	s.cache.put(s.id, m.off, vals)
	return vals, nil
}

// mustBlock is readBlock for cursor pull paths, which have no error
// channel: a failed read panics, and the engine's query-boundary recovery
// turns the panic into an internal-error result for that query alone.
func (s *Set) mustBlock(pm *predMeta, bi int) []rel.Value {
	vals, err := s.readBlock(pm, bi)
	if err != nil {
		panic(err)
	}
	return vals
}

// row is row i of a flat arity-a block. The full slice expression caps
// it, so appending to a yielded tuple cannot overwrite the next row.
func row(vals []rel.Value, a, i int) rel.Tuple {
	return rel.Tuple(vals[i*a : (i+1)*a : (i+1)*a])
}

// Table is the rel.ColdBase view of one predicate inside a Set.
type Table struct {
	s  *Set
	pm *predMeta
}

// Len returns the predicate's tuple count.
func (t *Table) Len() int { return int(t.pm.count) }

// Contains reports membership by binary-searching the block directory,
// then the (decoded, cached) candidate block.
func (t *Table) Contains(tp rel.Tuple) bool {
	if len(tp) != t.pm.arity {
		return false
	}
	if t.pm.arity == 0 {
		return t.pm.count > 0
	}
	blocks := t.pm.blocks
	bi := sort.Search(len(blocks), func(i int) bool {
		return keys.Compare(blocks[i].last, tp) >= 0
	})
	if bi == len(blocks) || keys.Compare(blocks[bi].first, tp) > 0 {
		return false
	}
	vals, a := t.s.mustBlock(t.pm, bi), t.pm.arity
	n := len(vals) / a
	ri := sort.Search(n, func(i int) bool {
		return keys.Compare(row(vals, a, i), tp) >= 0
	})
	return ri < n && keys.Compare(row(vals, a, ri), tp) == 0
}

// Scan returns a cursor over the tuples whose leading columns equal
// prefix (all tuples for an empty prefix), in ascending key order. Only
// the blocks the range intersects are ever read. The prefix is copied.
func (t *Table) Scan(prefix []rel.Value) rel.Cursor {
	if t.pm.arity == 0 {
		return &unitCursor{n: int(t.pm.count)}
	}
	c := &rangeCursor{t: t}
	if len(prefix) > 0 {
		c.prefix = append([]rel.Value(nil), prefix...)
	}
	blocks := t.pm.blocks
	c.bi = sort.Search(len(blocks), func(i int) bool {
		return keys.ComparePrefix(blocks[i].last, c.prefix) >= 0
	})
	c.hi = c.bi + sort.Search(len(blocks)-c.bi, func(i int) bool {
		return keys.ComparePrefix(blocks[c.bi+i].first, c.prefix) > 0
	})
	for i := c.bi; i < c.hi; i++ {
		c.rem += int(blocks[i].count)
	}
	return c
}

// unitCursor yields the arity-0 relation's n empty tuples.
type unitCursor struct{ n, served int }

func (c *unitCursor) Next() (rel.Tuple, bool) {
	if c.served >= c.n {
		return nil, false
	}
	c.served++
	return rel.Tuple{}, true
}

func (c *unitCursor) Remaining() int { return c.n - c.served }

// rangeCursor streams one contiguous key range, block by block.
type rangeCursor struct {
	t      *Table
	prefix []rel.Value
	bi, hi int         // blocks [bi, hi) are still to be loaded
	vals   []rel.Value // the loaded block, flat
	off    int         // offset in vals of the next row
	rem    int         // upper bound on rows left (boundary blocks overcount)
	served int
}

func (c *rangeCursor) Next() (rel.Tuple, bool) {
	a := c.t.pm.arity
	for {
		if end := c.off + a; end <= len(c.vals) {
			tp := rel.Tuple(c.vals[c.off:end:end])
			if len(c.prefix) > 0 && keys.ComparePrefix(tp, c.prefix) != 0 {
				c.bi, c.vals = c.hi, nil // past the run: exhausted for good
				c.rem = c.served
				return nil, false
			}
			c.off = end
			c.served++
			return tp, true
		}
		if c.bi >= c.hi {
			c.rem = c.served // exhausted: the bound is now exact
			return nil, false
		}
		// Every load advances bi, so an empty block cannot stall the loop.
		c.vals, c.off = c.t.s.mustBlock(c.t.pm, c.bi), 0
		c.bi++
		if len(c.prefix) > 0 {
			// Skip straight to the range start within the block.
			c.off = a * sort.Search(len(c.vals)/a, func(i int) bool {
				return keys.ComparePrefix(row(c.vals, a, i), c.prefix) >= 0
			})
		}
	}
}

// Remaining never underestimates: boundary blocks count fully until
// decoded (see rel.Cursor).
func (c *rangeCursor) Remaining() int { return c.rem - c.served }
