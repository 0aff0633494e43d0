package rel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Index is a hash index over a subset of a relation's columns: a table
// (see table) maps each key's hash to a 1-based position in keys, the flat
// key values (len(cols) per bucket), and in buckets, the 1-based positions
// of the matching rows in src, in ascending order. Buckets are pointer-free
// int32 lists; rows are read through src when a probe yields them. Since
// an insert appends the highest position, the rows a relation appended
// after some row are a tail of every bucket, which is how Probe cuts a
// bucket to a window by binary search. A
// bucket emptied by deletes keeps its key and slot until the index is
// rebuilt. Indexes are built lazily by Relation.Index, once per storage
// generation, and shared by every snapshot of it. A built Index is
// immutable once its generation is shared and safe for concurrent probes
// — the isolation contract every snapshot provides.
//
// On a cold relation there are two builds. When cols is a leading prefix
// (0, 1, ..., k-1), the order-preserving key encoding makes the matching
// cold tuples one contiguous key range, so the index keeps a pointer to
// the cold base and buckets only the in-RAM overlay: a probe is a range
// scan of the segment merged with the overlay bucket, and the build never
// pulls the base into RAM. Any other column set has no contiguous range,
// so the build materializes the base once (shared by every generation),
// copies its rows, then the overlay rows, into a private flat store and
// buckets everything — the hash join needs the build side resident
// anyway. Later overlay inserts and deletes are mirrored into that copy.
type Index struct {
	cols    []int
	arity   int
	tab     table
	keys    []Value
	buckets [][]int32
	live    int // non-empty buckets
	// src holds the rows bucket positions refer to: the generation's
	// store, or a private copy (own) whose first off rows are the cold
	// base's and the rest mirror the overlay.
	src  *store
	own  bool
	off  int
	cold ColdBase // non-nil for a bound-prefix index over a cold relation
}

// idxCache holds a relation's lazily built indexes. Relations carry one to
// three, so the cache is a list matched by column list. Reads go through
// an atomic pointer to an immutable slice, so any number of concurrent
// readers can hit warm indexes without locking; building a missing index
// swaps in a copied slice under the mutex (copy-on-write). The zero value
// is ready to use.
type idxCache struct {
	mu sync.Mutex
	p  atomic.Pointer[[]*Index]
}

// load returns the current indexes (nil when none exists yet).
func (c *idxCache) load() []*Index {
	if p := c.p.Load(); p != nil {
		return *p
	}
	return nil
}

// lookup returns the index over exactly cols, or nil.
func (c *idxCache) lookup(cols []int) *Index {
	for _, idx := range c.load() {
		if slices.Equal(idx.cols, cols) {
			return idx
		}
	}
	return nil
}

// insert publishes a new index; the caller must hold mu.
func (c *idxCache) insert(idx *Index) {
	l := append(slices.Clip(c.load()), idx)
	c.p.Store(&l)
}

// Index returns a hash index over cols, building it on first use in this
// generation. Inserts through a handle no snapshot shares keep it current;
// one through a shared handle leaves it to the snapshots and starts a new
// generation (see detach). It panics if any column is out of range.
// Concurrent readers of an immutable relation (or snapshot) may call Index
// concurrently: warm hits are lock-free, and a cold build is serialized
// internally. It panics on a window, whose rows are a range of the index's:
// probe a window through Probe.
func (r *Relation) Index(cols []int) *Index {
	if r.window {
		panic("rel: Index of a window; use Probe")
	}
	return r.index(cols)
}

// index returns the generation's index over cols, building it on first
// use. On a window it is the index of the whole store.
func (r *Relation) index(cols []int) *Index {
	if idx := r.g.idx.lookup(cols); idx != nil {
		return idx
	}
	return r.buildIndex(cols)
}

// buildIndex constructs and publishes the index for cols under the cache
// mutex, so two readers racing on a cold index build it once.
func (r *Relation) buildIndex(cols []int) *Index {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("rel: index column %d out of range for arity %d", c, r.arity))
		}
	}
	g := r.g
	g.idx.mu.Lock()
	defer g.idx.mu.Unlock()
	if idx := g.idx.lookup(cols); idx != nil {
		return idx
	}
	idx := &Index{cols: slices.Clone(cols), arity: r.arity, src: g}
	switch {
	case r.cold == nil:
	case leadingPrefix(cols):
		// Bound-prefix over cold data: bucket only the overlay and range-
		// scan the segment at probe time. The base stays on disk.
		idx.cold = r.cold.base
	default:
		base := r.cold.rows()
		idx.src, idx.own, idx.off = &store{vals: make([]Value, 0, (len(base)+g.n)*r.arity)}, true, len(base)
		for _, t := range base {
			idx.add(t, 0)
		}
	}
	for i := range g.n {
		idx.add(g.row(i, r.arity), i+1)
	}
	g.idx.insert(idx)
	return idx
}

// leadingPrefix reports whether cols is exactly the leading columns
// 0..len(cols)-1, the shape whose matching tuples form one contiguous
// range under the order-preserving key encoding.
func leadingPrefix(cols []int) bool {
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// key returns the key values of the bucket at 1-based position pos.
func (idx *Index) key(pos int) Tuple {
	k := len(idx.cols)
	return idx.keys[(pos-1)*k : pos*k]
}

// find looks up the bucket of t's key: the table slot and 1-based bucket
// position, or position 0 and the free slot that ended the probe.
func (idx *Index) find(t Tuple) (h uint32, slot, pos int) {
	h = hashCols(t, idx.cols)
	slot, pos = idx.tab.find(h, func(p int) bool {
		for i, v := range idx.key(p) {
			if t[idx.cols[i]] != v {
				return false
			}
		}
		return true
	})
	return h, slot, pos
}

// add buckets row t at 1-based position pos. A private store appends t
// itself and buckets it at its own next position instead.
func (idx *Index) add(t Tuple, pos int) {
	if idx.own {
		idx.src.push(t)
		pos = idx.src.n
	}
	h, slot, b := idx.find(t)
	if b == 0 {
		for _, c := range idx.cols {
			idx.keys = append(idx.keys, t[c])
		}
		idx.buckets = append(idx.buckets, nil)
		b = len(idx.buckets)
		idx.tab.put(slot, h, b)
	}
	if len(idx.buckets[b-1]) == 0 {
		idx.live++
	}
	idx.buckets[b-1] = append(idx.buckets[b-1], int32(pos))
}

// remove mirrors Relation.Delete: row t at position pos leaves its bucket,
// and row moved, which the relation moves from position last into the
// hole, is repointed in its bucket. Both buckets stay in ascending order:
// last, the highest position, is the tail of moved's bucket, and pos is
// shifted into its place. It must run before the relation overwrites the
// hole.
func (idx *Index) remove(t Tuple, pos int, moved Tuple, last int) {
	if idx.own {
		pos, last = pos+idx.off, last+idx.off
	}
	if _, _, b := idx.find(t); b != 0 {
		bucket := idx.buckets[b-1]
		if i, ok := slices.BinarySearch(bucket, int32(pos)); ok {
			bucket = slices.Delete(bucket, i, i+1)
			idx.buckets[b-1] = bucket
			if len(bucket) == 0 {
				idx.buckets[b-1] = nil
				idx.live--
			}
		}
	}
	if pos != last {
		if _, _, b := idx.find(moved); b != 0 {
			bucket := idx.buckets[b-1]
			if n := len(bucket) - 1; n >= 0 && bucket[n] == int32(last) {
				i, _ := slices.BinarySearch(bucket[:n], int32(pos))
				copy(bucket[i+1:], bucket[i:n])
				bucket[i] = int32(pos)
			}
		}
	}
	if idx.own {
		s := idx.src
		copy(s.row(pos-1, idx.arity), s.row(last-1, idx.arity))
		s.vals = s.vals[:len(s.vals)-idx.arity]
		s.n--
	}
}

// Lookup returns the tuples whose indexed columns equal vals, which must
// have one value per indexed column, as a fresh slice of row views the
// caller must not modify. The probe only reads the index, so concurrent
// readers of one index never interfere. On a bound-prefix cold index the
// matching cold range comes first. Callers that can consume
// incrementally should prefer Scan, which allocates nothing on a resident
// index and streams the cold range.
func (idx *Index) Lookup(vals []Value) []Tuple {
	bucket := idx.bucket(vals)
	var out []Tuple
	if idx.cold != nil {
		cur := idx.cold.Scan(vals)
		out = make([]Tuple, 0, cur.Remaining()+len(bucket))
		for t, ok := cur.Next(); ok; t, ok = cur.Next() {
			out = append(out, t)
		}
	} else if len(bucket) > 0 {
		out = make([]Tuple, 0, len(bucket))
	}
	for _, p := range bucket {
		out = append(out, idx.src.row(int(p)-1, idx.arity))
	}
	return out
}

// bucket returns the row positions for vals in the in-RAM rows (every row
// on a fully resident index).
func (idx *Index) bucket(vals []Value) []int32 {
	if len(vals) != len(idx.cols) {
		panic(fmt.Sprintf("rel: index lookup with %d values for %d columns", len(vals), len(idx.cols)))
	}
	_, pos := idx.tab.find(hashVals(vals), func(p int) bool { return idx.key(p).Equal(vals) })
	if pos == 0 {
		return nil
	}
	return idx.buckets[pos-1]
}

// Buckets reports the number of distinct key combinations in the index
// that still hold tuples.
func (idx *Index) Buckets() int { return idx.live }
