package rel

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Index is a hash index over a subset of a relation's columns: a table
// (see table) maps each key's hash to a 1-based position in keys, the flat
// key values (len(cols) per bucket), and in buckets, the matching tuples in
// insertion order. A bucket emptied by deletes keeps its key and slot until
// the index is rebuilt. Indexes are built lazily by Relation.Index, once
// per storage generation, and shared by every snapshot of it. A built
// Index is immutable once its generation is shared and safe for concurrent
// Lookup — the isolation contract every snapshot provides.
//
// On a cold relation there are two builds. When cols is a leading prefix
// (0, 1, ..., k-1), the order-preserving key encoding makes the matching
// cold tuples one contiguous key range, so the index keeps a pointer to
// the cold base and buckets only the in-RAM overlay: a probe is a range
// scan of the segment merged with the overlay bucket, and the build never
// pulls the base into RAM. Any other column set has no contiguous range,
// so the build materializes the relation once and buckets everything —
// the hash join needs the build side resident anyway.
type Index struct {
	cols    []int
	tab     table
	keys    []Value
	buckets [][]Tuple
	live    int      // non-empty buckets
	cold    ColdBase // non-nil for a bound-prefix index over a cold relation
}

// keyBufLen sizes the stack buffer Relation.Index builds its cache key in
// (see colsKey): 16 columns fit without a heap allocation, wider column
// lists spill transparently. A per-call buffer (instead of a scratch field)
// keeps Index safe for any number of concurrent readers of one snapshot.
const keyBufLen = 64

// colsKey appends a fixed-width binary encoding of the column list to dst
// and returns it. It replaces the old fmt.Sprintf/strings.Join rendering:
// the key is only ever a map key, so a 4-byte integer encoding (injective
// for any realistic arity) avoids the per-call formatting allocations on
// what is the entry ticket to every index probe in the join loops.
func colsKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = append(dst, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return dst
}

// idxCache holds a relation's lazily built indexes. Reads go through an
// atomic pointer to an immutable map, so any number of concurrent readers
// can hit warm indexes without locking; building a missing index swaps in
// a copied map under the mutex (copy-on-write). The zero value is ready to
// use.
type idxCache struct {
	mu sync.Mutex
	p  atomic.Pointer[map[string]*Index]
}

// load returns the current index map (nil when no index exists yet).
func (c *idxCache) load() map[string]*Index {
	if m := c.p.Load(); m != nil {
		return *m
	}
	return nil
}

// insert publishes a new index under key; the caller must hold mu.
func (c *idxCache) insert(key string, idx *Index) {
	old := c.load()
	m := make(map[string]*Index, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[key] = idx
	c.p.Store(&m)
}

// Index returns a hash index over cols, building it on first use in this
// generation. Inserts through a handle no snapshot shares keep it current;
// one through a shared handle leaves it to the snapshots and starts a new
// generation (see detach). It panics if any column is out of range.
// Concurrent readers of an immutable relation (or snapshot) may call Index
// concurrently: warm hits are lock-free, and a cold build is serialized
// internally.
func (r *Relation) Index(cols []int) *Index {
	var buf [keyBufLen]byte
	key := colsKey(buf[:0], cols)
	if m := r.idx.load(); m != nil {
		if idx, ok := m[string(key)]; ok {
			return idx
		}
	}
	return r.buildIndex(cols, string(key))
}

// buildIndex constructs and publishes the index for cols under the cache
// mutex, so two readers racing on a cold index build it once.
func (r *Relation) buildIndex(cols []int, key string) *Index {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("rel: index column %d out of range for arity %d", c, r.arity))
		}
	}
	r.idx.mu.Lock()
	defer r.idx.mu.Unlock()
	if m := r.idx.load(); m != nil {
		if idx, ok := m[key]; ok {
			return idx
		}
	}
	idx := &Index{cols: append([]int(nil), cols...)}
	rows := r.rows
	if r.cold != nil && leadingPrefix(cols) {
		// Bound-prefix over cold data: bucket only the overlay and range-
		// scan the segment at probe time. The base stays on disk.
		idx.cold = r.cold.base
	} else {
		rows = r.Rows()
	}
	for _, t := range rows {
		idx.add(t)
	}
	r.idx.insert(key, idx)
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

func (idx *Index) add(t Tuple) {
	h, slot, pos := idx.find(t)
	if pos == 0 {
		for _, c := range idx.cols {
			idx.keys = append(idx.keys, t[c])
		}
		idx.buckets = append(idx.buckets, nil)
		pos = len(idx.buckets)
		idx.tab.put(slot, h, pos)
	}
	if len(idx.buckets[pos-1]) == 0 {
		idx.live++
	}
	idx.buckets[pos-1] = append(idx.buckets[pos-1], t)
}

func (idx *Index) remove(t Tuple) {
	_, _, pos := idx.find(t)
	if pos == 0 {
		return
	}
	bucket := idx.buckets[pos-1]
	for i, row := range bucket {
		if row.Equal(t) {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			idx.buckets[pos-1] = bucket[:last]
			if last == 0 {
				idx.buckets[pos-1] = nil
				idx.live--
			}
			return
		}
	}
}

// Lookup returns the tuples whose indexed columns equal vals, which must
// have one value per indexed column. The returned slice must not be
// modified. The probe only reads the index, so concurrent readers of one
// index never interfere. On a bound-prefix cold index the matching cold
// range is drained into a fresh slice per call — callers that can consume
// incrementally should prefer Scan, which streams it.
func (idx *Index) Lookup(vals []Value) []Tuple {
	bucket := idx.bucket(vals)
	if idx.cold == nil {
		return bucket
	}
	cur := idx.cold.Scan(vals)
	out := make([]Tuple, 0, cur.Remaining()+len(bucket))
	for t, ok := cur.Next(); ok; t, ok = cur.Next() {
		out = append(out, t)
	}
	return append(out, bucket...)
}

// bucket returns the overlay bucket for vals (every bucket on a fully
// resident index).
func (idx *Index) bucket(vals []Value) []Tuple {
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
