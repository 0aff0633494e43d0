package rel

import "slices"

// Scan is a resumable cursor over tuple storage — the unit of streaming
// the iterator executor pulls from. A Scan yields zero-copy row views:
// the returned tuples alias the relation's flat value array (or, on a
// cold relation, the cold tier's decoded blocks), so callers must not
// modify them and must clone anything they keep past the next mutation of
// the relation. Scan is a small value type by design (ten words, the
// cold-tier state behind one pointer): embedding it in per-step cursors
// costs no allocation, and the copy every scan open makes stays cheap,
// which is what keeps the pull-based executor competitive with the old
// recursive push evaluator.
// On a cold relation a Scan carries a second source: a Cursor over the
// matching key range of the cold tier, drained before the in-RAM rows.
// Cold tuples stream off disk block by block — the executor's pull loop
// (budget-ticked per candidate) is then bounded by the block cache, not
// the relation size.
type Scan struct {
	vals  []Value // the in-RAM rows, arity values each
	arity int
	// bucket lists the 1-based row positions to yield, for an index
	// probe; a full scan (nil bucket) yields rows 0..end-1 in order.
	bucket   []int32
	pos, end int
	cold     *coldScan // nil for a fully resident source
}

// coldScan is a Scan's cold-tier source, kept behind a pointer so a
// resident Scan stays small to copy.
type coldScan struct {
	// cur yields the cold tier's tuples first; nil once drained.
	// src/prefix remember how to reopen it so Reset still rewinds the
	// whole scan.
	cur    Cursor
	src    ColdBase
	prefix []Value
	buf    [4]Value // backs short prefixes, saving an allocation per probe
}

// Next yields the next tuple view, or (nil, false) when exhausted.
func (s *Scan) Next() (Tuple, bool) {
	if c := s.cold; c != nil && c.cur != nil {
		if t, ok := c.cur.Next(); ok {
			return t, true
		}
		c.cur = nil
	}
	if s.pos >= s.end {
		return nil, false
	}
	i := s.pos
	if s.bucket != nil {
		i = int(s.bucket[i]) - 1
	}
	s.pos++
	o := i * s.arity
	return s.vals[o : o+s.arity : o+s.arity], true
}

// Remaining reports how many tuples the scan has left to yield (an upper
// bound on a cold range scan, exact otherwise — see Cursor.Remaining).
func (s *Scan) Remaining() int {
	n := s.end - s.pos
	if c := s.cold; c != nil && c.cur != nil {
		n += c.cur.Remaining()
	}
	return n
}

// Reset rewinds the scan to its first tuple, reopening the cold cursor if
// the scan has one.
func (s *Scan) Reset() {
	s.pos = 0
	if c := s.cold; c != nil {
		c.cur = c.src.Scan(c.prefix)
	}
}

// Scan returns a full-relation scan over the current rows (a window's
// rows, on a window). The cursor captures the value array and row count
// (and cold tier) at call time: tuples inserted afterwards are not
// yielded.
func (r *Relation) Scan() Scan {
	if r == nil {
		return Scan{}
	}
	lo, hi := r.bounds()
	s := Scan{vals: r.g.vals[lo*r.arity : hi*r.arity], arity: r.arity, end: hi - lo}
	if r.cold != nil {
		s.cold = openCold(r.cold.base, nil)
	}
	return s
}

// openCold opens a Scan's cold source over base's rows matching prefix,
// keeping a copy of prefix for Reset: the executor reuses the probe's
// backing buffer across rebinds, and the scan may outlive the current
// binding.
func openCold(base ColdBase, prefix []Value) *coldScan {
	c := &coldScan{src: base}
	if prefix != nil {
		c.prefix = append(c.buf[:0], prefix...)
	}
	c.cur = base.Scan(c.prefix)
	return c
}

// Probe returns a cursor over r's tuples whose columns cols equal key:
// Index(cols).Scan(key), except that on a window the index is the whole
// store's and its bucket is cut by binary search to the window's rows.
func (r *Relation) Probe(cols []int, key []Value) Scan {
	idx := r.index(cols)
	if !r.window {
		return idx.Scan(key)
	}
	bucket := idx.bucket(key)
	i, _ := slices.BinarySearch(bucket, r.lo+1)
	j, _ := slices.BinarySearch(bucket[i:], r.hi+1)
	bucket = bucket[i : i+j]
	return Scan{vals: idx.src.vals, arity: r.arity, bucket: bucket, end: len(bucket)}
}

// Scan returns a cursor over the tuples matching vals — the probe side of
// a hash join. On a fully resident index this yields zero-copy row views
// of the bucket in row order; on a bound-prefix cold index it
// streams the segment's key range first, then the overlay bucket.
func (idx *Index) Scan(vals []Value) Scan {
	bucket := idx.bucket(vals)
	s := Scan{vals: idx.src.vals, arity: idx.arity, bucket: bucket, end: len(bucket)}
	if idx.cold != nil {
		s.cold = openCold(idx.cold, vals)
	}
	return s
}
