// Package rel implements the relational storage layer of the engine:
// fixed-arity relations of interned-symbol tuples with set semantics, lazy
// hash indexes keyed by column subsets, and the relational operators the
// evaluation algorithms need (selection, projection, join, union,
// difference). A relation stores its rows in one flat, pointer-free value
// array and hands rows out as views into it; index buckets hold row
// positions. Relations and indexes find tuples and keys through one
// open-addressing table of positions (table.go) that hashes values
// directly with a per-process seed; no tuple is encoded into a key. A
// Window is a read-only handle over a range of a relation's rows: the
// fixpoint evaluators insert a round's tuples straight into the total and
// read the round's delta, and the total as it stood when the round began,
// as windows of it.
package rel

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"sepdl/internal/symtab"
)

// Value is re-exported from symtab for convenience: every cell of every
// tuple is an interned constant.
type Value = symtab.Value

// ValueBytes is the in-memory size of one tuple cell, for converting
// tuple counts into byte figures (e.g. peak-intermediate accounting).
const ValueBytes = 4

// Tuple is a fixed-length row of interned constants.
type Tuple []Value

// Clone returns a copy of t that does not alias its storage.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether t and u have the same length and cells.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Relation is a set of same-arity tuples with optional hash indexes. Rows
// live in one flat value array in insertion order, arity values per row
// (see store); set, an open-addressing table of 1-based row positions
// keyed by each tuple's hash (see table), makes membership, insertion and
// deletion O(1) without encoding tuples into keys. An insert appends the
// tuple's values: no per-row object is allocated, and the array holds no
// pointers for the garbage collector to scan. The zero value is unusable;
// construct with New. Relations are not safe for concurrent mutation;
// point-in-time isolation for concurrent readers is provided by Snapshot's
// copy-on-write scheme. The read paths — Contains, Row, Rows, Scan, Index,
// Lookup — are safe for concurrent use on a relation nobody is mutating,
// which is what lets concurrent queries and the Separable evaluator's
// per-class workers share one snapshot.
//
// Rows are handed out as views into the value array (Row, Rows, Scan,
// Lookup), never copies. A row handed out by an unshared handle is valid
// until that handle's next mutation: only Delete overwrites a row in place
// (the last row moves into the hole, and a later Insert reuses the freed
// tail). A snapshot's rows never change.
//
// Indexes belong to a storage generation, not to a handle: snapshots of an
// unmodified relation share its store, index cache included, by pointer,
// so an index is built once however many queries probe it. The first
// mutation through a handle whose storage is shared starts a new
// generation with an empty cache (see detach); an unshared handle
// maintains its indexes in place.
//
// A window (see Window) shares its relation's store too, but reads only
// the row range it was cut to. It is valid while its relation only
// appends: a Delete may move a row into the range.
type Relation struct {
	arity int
	g     *store // this handle's storage generation; shared with snapshots
	// cold, when non-nil, is an immutable sorted tuple tier (a segment
	// file's rows) underneath the in-RAM overlay: g then holds only
	// tuples inserted since the last rebase, and every read merges both
	// tiers. The coldState pointer is shared with snapshots.
	cold *coldState
	// all caches the combined cold+overlay row slice Rows() hands out on a
	// cold relation; mutations through this handle clear it. Unused (and
	// never touched) when cold is nil, keeping the hot write path free of
	// the atomic store.
	all atomic.Pointer[[]Tuple]
	// shared marks g as aliased by at least one Snapshot; the next
	// mutation through this handle copies it first (copy-on-write), so the
	// aliased storage is frozen forever once a snapshot exists.
	shared bool
	// window marks a read-only handle over rows lo..hi-1 of g (see
	// Window). The bounds are int32, like every row position, which keeps
	// a Relation in its 48-byte allocation size class.
	window bool
	lo, hi int32
}

// store is one storage generation of a relation's in-RAM rows, in one heap
// object: the flat row values, the row table over them and the lazily
// built indexes, whose buckets hold positions into vals.
type store struct {
	vals []Value // arity values per row, row-major
	n    int     // rows; kept apart from len(vals), which nullary rows leave at 0
	set  table   // 1-based row positions by tuple hash
	idx  idxCache
}

// row returns a capped view of row i (0-based): appending to it cannot
// overwrite the next row.
func (s *store) row(i, arity int) Tuple {
	o := i * arity
	return s.vals[o : o+arity : o+arity]
}

// minRows is the row capacity a store's value array starts at, sparing the
// small, short-lived relations of fixpoint rounds the first doublings.
const minRows = 8

// push appends t's values as a new last row.
func (s *store) push(t Tuple) {
	if cap(s.vals) == 0 {
		s.vals = make([]Value, 0, minRows*len(t))
	}
	s.vals = append(s.vals, t...)
	s.n++
}

// clone copies the values and the row table's slots into a new generation
// with an empty index cache. Positions and hash tags are unchanged, so
// nothing is rehashed.
func (s *store) clone() *store {
	return &store{vals: slices.Clone(s.vals), n: s.n, set: table{slots: slices.Clone(s.set.slots), n: s.set.n}}
}

// New returns an empty relation of the given arity. Arity zero is legal and
// models a boolean relation holding at most the empty tuple.
func New(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("rel: negative arity %d", arity))
	}
	return &Relation{arity: arity, g: new(store)}
}

// find looks t up among the overlay rows: its hash, and the table slot and
// 1-based row position that hold it, or position 0 and the free slot that
// ended the probe (see table.find).
func (r *Relation) find(t Tuple) (h uint32, slot, pos int) {
	h = hashVals(t)
	vals, a := r.g.vals, r.arity
	slot, pos = r.g.set.find(h, func(p int) bool { return Tuple(vals[(p-1)*a : p*a]).Equal(t) })
	return h, slot, pos
}

// FromTuples builds a relation of the given arity from tuples, ignoring
// duplicates. Values are copied, so callers may reuse their slices.
func FromTuples(arity int, tuples []Tuple) *Relation {
	r := New(arity)
	for _, t := range tuples {
		r.Insert(t)
	}
	return r
}

// FromRows builds a relation over rows, ignoring duplicates. It copies
// the rows' values into the relation's own array, sized up front, so the
// result is independent of rows. The Separable evaluator uses it to split
// a joint closure into per-start sets.
func FromRows(arity int, rows []Tuple) *Relation {
	r := New(arity)
	r.g.vals = make([]Value, 0, len(rows)*arity)
	for _, t := range rows {
		if len(t) != r.arity {
			panic(fmt.Sprintf("rel: arity-%d row in arity-%d FromRows", len(t), r.arity))
		}
		if h, slot, pos := r.find(t); pos == 0 {
			r.g.push(t)
			r.g.set.put(slot, h, r.g.n)
		}
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Window returns a read-only handle over rows lo..hi-1 (in Rows order,
// 0 <= lo <= hi <= Len()) of a resident relation, or of the range of a
// window. It shares r's store: r may keep inserting, and the window never
// sees the rows r appends. Len, Row, Rows, Contains, Scan, Probe and the
// operators built on them read only the window's rows; Insert, Delete,
// Snapshot and Index panic on a window. A window is valid while r only
// appends: a Delete through r moves its last row into the hole and may
// move a row into, or out of, the window's range.
func (r *Relation) Window(lo, hi int) *Relation {
	if r.cold != nil {
		panic("rel: Window on a cold relation")
	}
	if lo < 0 || lo > hi || hi > r.Len() {
		panic(fmt.Sprintf("rel: Window(%d, %d) of a %d-row relation", lo, hi, r.Len()))
	}
	off, _ := r.bounds()
	return &Relation{arity: r.arity, g: r.g, window: true, lo: int32(off + lo), hi: int32(off + hi)}
}

// bounds returns the range of g's rows this handle reads: lo..hi-1 of a
// window, every row otherwise.
func (r *Relation) bounds() (lo, hi int) {
	if r.window {
		return int(r.lo), int(r.hi)
	}
	return 0, r.g.n
}

// Len returns the number of distinct tuples across both tiers. Inserts
// deduplicate against the cold base, so the tiers are disjoint and the
// count is a sum — no merge needed.
func (r *Relation) Len() int {
	lo, hi := r.bounds()
	n := hi - lo
	if r.cold != nil {
		n += r.cold.base.Len()
	}
	return n
}

// Empty reports whether the relation holds no tuples.
func (r *Relation) Empty() bool { return r.Len() == 0 }

// Snapshot returns an immutable point-in-time view of r: a relation that
// holds exactly r's current tuples and never changes, sharing storage with
// r until either side mutates (copy-on-write). Snapshots are what make
// concurrent queries safe: each query evaluates against its own snapshot
// handles while writers keep mutating the original. The snapshot shares
// r's store by pointer, index cache included, so an index any handle of
// this generation built (or builds later) serves every other handle of
// it. Taking a snapshot mutates r's bookkeeping, so it must be serialized
// with writers by the caller — the engine does this under its writer
// lock.
func (r *Relation) Snapshot() *Relation {
	if r.window {
		panic("rel: Snapshot of a window")
	}
	r.shared = true
	return &Relation{arity: r.arity, g: r.g, cold: r.cold, shared: true}
}

// detach un-aliases storage shared with a snapshot before a mutation: r
// swaps in a copy of the store (one flat copy of the values, one of the
// row table's slots), leaving every previously taken snapshot frozen on
// the old one. The old store's index cache stays with those snapshots,
// still describing their frozen content, and r starts the new generation
// with an empty cache that rebuilds lazily.
func (r *Relation) detach() {
	if !r.shared {
		return
	}
	r.g = r.g.clone()
	r.shared = false
}

// Insert adds a copy of t's values and reports whether t was not already
// present. It panics if t has the wrong arity or r is a window.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity || r.window {
		r.badWrite("inserting", t)
	}
	h, slot, pos := r.find(t)
	if pos != 0 {
		return false
	}
	if r.cold != nil {
		if r.cold.base.Contains(t) {
			return false
		}
		r.all.Store(nil)
	}
	r.detach()
	g := r.g
	g.push(t)
	g.set.put(slot, h, g.n)
	for _, idx := range g.idx.load() {
		idx.add(t, g.n)
	}
	return true
}

// badWrite panics on a write through a window or of a wrong-arity tuple.
func (r *Relation) badWrite(verb string, t Tuple) {
	if r.window {
		panic(fmt.Sprintf("rel: %s through a window", verb))
	}
	panic(fmt.Sprintf("rel: %s arity-%d tuple into arity-%d relation", verb, len(t), r.arity))
}

// InsertAll inserts every tuple of other into r and returns the number of
// tuples actually added.
func (r *Relation) InsertAll(other *Relation) int {
	if other.arity != r.arity {
		panic(fmt.Sprintf("rel: union of arity %d and %d", r.arity, other.arity))
	}
	n := 0
	for i := range other.Len() {
		if r.Insert(other.Row(i)) {
			n++
		}
	}
	return n
}

// Delete removes t and reports whether it was present. Indexes of this
// generation are maintained, as in Insert. Row order is not preserved:
// the last row moves into the deleted row's position, and its table entry
// and index bucket entries are repointed there.
func (r *Relation) Delete(t Tuple) bool {
	if r.window {
		r.badWrite("deleting", t)
	}
	if len(t) != r.arity {
		return false
	}
	_, slot, pos := r.find(t)
	if pos == 0 {
		if r.cold == nil || !r.cold.base.Contains(t) {
			return false
		}
		// The tuple lives in the cold tier: materialize it into the
		// overlay first (see thaw), then delete through the normal path.
		r.thaw()
		_, slot, pos = r.find(t)
	}
	if r.cold != nil {
		r.all.Store(nil)
	}
	r.detach()
	g := r.g
	last := g.n
	moved := g.row(last-1, r.arity)
	// Indexes first: t may be a view of the row the move below overwrites.
	for _, idx := range g.idx.load() {
		idx.remove(t, pos, moved, last)
	}
	g.set.remove(slot)
	if pos != last {
		s, _ := g.set.find(hashVals(moved), func(p int) bool { return p == last })
		g.set.repoint(s, pos)
		copy(g.row(pos-1, r.arity), moved)
	}
	g.vals = g.vals[:len(g.vals)-r.arity]
	g.n--
	return true
}

// Contains reports whether t is present. The probe only reads the row
// table, so concurrent readers of one relation never interfere.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	if _, _, pos := r.find(t); pos != 0 {
		return !r.window || int32(pos) > r.lo && int32(pos) <= r.hi
	}
	return r.cold != nil && r.cold.base.Contains(t)
}

// Row returns row i (0 <= i < Len()) in Rows order, as a view the caller
// must not modify. On a fully resident relation it is free, which makes
// "for i := range r.Len() { t := r.Row(i) ... }" the allocation-free way
// to walk every row; on a cold relation the first call materializes the
// cold base (as Rows does).
func (r *Relation) Row(i int) Tuple {
	if r.cold != nil {
		base := r.cold.rows()
		if i < len(base) {
			return base[i]
		}
		i -= len(base)
	}
	if r.window {
		if uint(i) >= uint(r.hi-r.lo) {
			panic(fmt.Sprintf("rel: row %d of a %d-row window", i, r.hi-r.lo))
		}
		i += int(r.lo)
	} else if uint(i) >= uint(r.g.n) {
		panic(fmt.Sprintf("rel: row %d of a %d-row relation", i, r.g.n))
	}
	return r.g.row(i, r.arity)
}

// Rows returns every tuple of the relation as one slice of row views. On a
// fully resident relation the slice is built per call, in insertion order;
// on a cold relation it holds base rows (sorted) followed by overlay rows,
// cached until the next mutation through this handle. Hot loops should
// walk Row or Scan instead. Callers must not modify the returned tuples.
func (r *Relation) Rows() []Tuple {
	if r.cold == nil {
		lo, hi := r.bounds()
		return r.g.rows(lo, hi, r.arity)
	}
	if p := r.all.Load(); p != nil {
		return *p
	}
	base := r.cold.rows()
	out := make([]Tuple, 0, len(base)+r.g.n)
	out = append(out, base...)
	out = append(out, r.g.rows(0, r.g.n, r.arity)...)
	r.all.Store(&out)
	return out
}

// rows returns a view of rows lo..hi-1, in position order.
func (s *store) rows(lo, hi, arity int) []Tuple {
	out := make([]Tuple, hi-lo)
	for i := range out {
		out[i] = s.row(lo+i, arity)
	}
	return out
}

// Clone returns a deep copy of the relation (indexes are not copied).
// Cloning a resident relation copies its values and row table without
// rehashing; cloning a cold relation materializes it: the clone is fully
// resident. Cloning a window copies its rows into a relation of their own.
func (r *Relation) Clone() *Relation {
	if r.window {
		return FromRows(r.arity, r.Rows())
	}
	if r.cold == nil {
		return &Relation{arity: r.arity, g: r.g.clone()}
	}
	out := New(r.arity)
	for _, t := range r.Rows() {
		out.Insert(t)
	}
	return out
}

// Equal reports whether r and other contain exactly the same tuple set.
func (r *Relation) Equal(other *Relation) bool {
	if r.arity != other.arity || r.Len() != other.Len() {
		return false
	}
	for i := range r.Len() {
		if !other.Contains(r.Row(i)) {
			return false
		}
	}
	return true
}

// String renders the relation as a sorted, braced tuple list. Values print
// as raw ids; use Dump for symbolic output.
func (r *Relation) String() string {
	rows := r.Rows()
	lines := make([]string, 0, len(rows))
	for _, t := range rows {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = fmt.Sprintf("%d", v)
		}
		lines = append(lines, "("+strings.Join(parts, ",")+")")
	}
	sort.Strings(lines)
	return "{" + strings.Join(lines, " ") + "}"
}

// Dump renders the relation with symbol names resolved through st, sorted
// for deterministic test output.
func (r *Relation) Dump(st *symtab.Table) string {
	rows := r.Rows()
	lines := make([]string, 0, len(rows))
	for _, t := range rows {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = st.Name(v)
		}
		lines = append(lines, "("+strings.Join(parts, ",")+")")
	}
	sort.Strings(lines)
	return "{" + strings.Join(lines, " ") + "}"
}
