// Package rel implements the relational storage layer of the engine:
// fixed-arity relations of interned-symbol tuples with set semantics, lazy
// hash indexes keyed by column subsets, and the relational operators the
// evaluation algorithms need (selection, projection, join, union,
// difference). Relations and indexes find tuples and keys through one
// open-addressing table of positions (table.go) that hashes values
// directly with a per-process seed; no tuple is encoded into a key.
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
// live in one slice in insertion order; set, an open-addressing table of
// 1-based row positions keyed by each tuple's hash (see table), makes
// membership, insertion and deletion O(1) without encoding tuples into
// keys. The zero value is unusable; construct with New. Relations are not
// safe for concurrent mutation; point-in-time isolation for concurrent
// readers is provided by Snapshot's copy-on-write scheme. The read paths —
// Contains, Rows, Index, Lookup — are safe for concurrent use on a
// relation nobody is mutating, which is what lets concurrent queries and
// the Separable evaluator's per-class workers share one snapshot.
//
// Indexes belong to a storage generation, not to a handle: snapshots of an
// unmodified relation share its index cache by pointer, so an index is
// built once however many queries probe it. The first mutation through a
// handle whose storage is shared starts a new generation with an empty
// cache (see detach); an unshared handle maintains its indexes in place.
type Relation struct {
	arity int
	rows  []Tuple
	set   table     // row positions by tuple hash; shared with snapshots
	idx   *idxCache // shared with snapshots, like rows and set
	// cold, when non-nil, is an immutable sorted tuple tier (a segment
	// file's rows) underneath the in-RAM overlay: rows/set then hold only
	// tuples inserted since the last rebase, and every read merges both
	// tiers. The coldState pointer is shared with snapshots.
	cold *coldState
	// all caches the combined cold+overlay row slice Rows() hands out on a
	// cold relation; mutations through this handle clear it. Unused (and
	// never touched) when cold is nil, keeping the hot write path free of
	// the atomic store.
	all atomic.Pointer[[]Tuple]
	// shared marks rows and set as aliased by at least one Snapshot; the
	// next mutation through this handle copies them first (copy-on-write),
	// so the aliased storage is frozen forever once a snapshot exists.
	shared bool
}

// New returns an empty relation of the given arity. Arity zero is legal and
// models a boolean relation holding at most the empty tuple.
func New(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("rel: negative arity %d", arity))
	}
	return &Relation{arity: arity, idx: new(idxCache)}
}

// find looks t up among the overlay rows: its hash, and the table slot and
// 1-based row position that hold it, or position 0 and the free slot that
// ended the probe (see table.find).
func (r *Relation) find(t Tuple) (h uint32, slot, pos int) {
	h = hashVals(t)
	slot, pos = r.set.find(h, func(p int) bool { return r.rows[p-1].Equal(t) })
	return h, slot, pos
}

// FromTuples builds a relation of the given arity from tuples, ignoring
// duplicates. Tuples are cloned, so callers may reuse their slices.
func FromTuples(arity int, tuples []Tuple) *Relation {
	r := New(arity)
	for _, t := range tuples {
		r.Insert(t)
	}
	return r
}

// FromRows builds a relation over rows without cloning tuple storage: the
// tuples are shared with the caller, which must treat them as immutable
// (every tuple a Relation hands out already is). Duplicates are ignored.
// The Separable evaluator uses it to split a joint closure into per-start
// sets without copying every tuple.
func FromRows(arity int, rows []Tuple) *Relation {
	r := New(arity)
	for _, t := range rows {
		if len(t) != r.arity {
			panic(fmt.Sprintf("rel: arity-%d row in arity-%d FromRows", len(t), r.arity))
		}
		if h, slot, pos := r.find(t); pos == 0 {
			r.rows = append(r.rows, t)
			r.set.put(slot, h, len(r.rows))
		}
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of distinct tuples across both tiers. Inserts
// deduplicate against the cold base, so the tiers are disjoint and the
// count is a sum — no merge needed.
func (r *Relation) Len() int {
	n := len(r.rows)
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
// r's lazy index cache, so an index any handle of this generation built
// (or builds later) serves every other handle of it. Taking a snapshot
// mutates r's bookkeeping, so it must be serialized with writers by the
// caller — the engine does this under its writer lock.
func (r *Relation) Snapshot() *Relation {
	r.shared = true
	return &Relation{arity: r.arity, rows: r.rows, set: r.set, idx: r.idx, cold: r.cold, shared: true}
}

// detach un-aliases storage shared with a snapshot before a mutation: the
// rows slice and the row table's slots are copied, one flat copy each
// (tuples themselves are immutable and stay shared), leaving every
// previously taken snapshot frozen. The shared index cache stays with
// those snapshots, still describing their frozen content, and r starts
// the new generation with an empty cache that rebuilds lazily.
func (r *Relation) detach() {
	if !r.shared {
		return
	}
	r.rows = slices.Clone(r.rows)
	r.set.slots = slices.Clone(r.set.slots)
	r.idx = new(idxCache)
	r.shared = false
}

// Insert adds t (cloned) and reports whether it was not already present.
// It panics if t has the wrong arity.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("rel: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
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
	c := t.Clone()
	r.rows = append(r.rows, c)
	r.set.put(slot, h, len(r.rows))
	for _, idx := range r.idx.load() {
		idx.add(c)
	}
	return true
}

// InsertAll inserts every tuple of other into r and returns the number of
// tuples actually added.
func (r *Relation) InsertAll(other *Relation) int {
	if other.arity != r.arity {
		panic(fmt.Sprintf("rel: union of arity %d and %d", r.arity, other.arity))
	}
	n := 0
	for _, t := range other.Rows() {
		if r.Insert(t) {
			n++
		}
	}
	return n
}

// Delete removes t and reports whether it was present. Indexes of this
// generation are maintained, as in Insert. Row order is not preserved
// (the last row takes the deleted row's position, and its table entry is
// repointed there).
func (r *Relation) Delete(t Tuple) bool {
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
	r.set.remove(slot)
	if last := len(r.rows); pos != last {
		moved := r.rows[last-1]
		r.rows[pos-1] = moved
		s, _ := r.set.find(hashVals(moved), func(p int) bool { return p == last })
		r.set.repoint(s, pos)
	}
	r.rows = r.rows[:len(r.rows)-1]
	for _, idx := range r.idx.load() {
		idx.remove(t)
	}
	return true
}

// Contains reports whether t is present. The probe only reads the row
// table, so concurrent readers of one relation never interfere.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	if _, _, pos := r.find(t); pos != 0 {
		return true
	}
	return r.cold != nil && r.cold.base.Contains(t)
}

// Rows returns every tuple of the relation as one slice. On a fully
// resident relation this is the backing slice in insertion order, at zero
// cost; on a cold relation it materializes base rows (sorted) followed by
// overlay rows, cached until the next mutation through this handle. The
// streaming executor avoids this path — prefer Scan where a cursor will
// do. Callers must not modify the returned tuples.
func (r *Relation) Rows() []Tuple {
	if r.cold == nil {
		return r.rows
	}
	if p := r.all.Load(); p != nil {
		return *p
	}
	base := r.cold.rows()
	out := make([]Tuple, 0, len(base)+len(r.rows))
	out = append(out, base...)
	out = append(out, r.rows...)
	r.all.Store(&out)
	return out
}

// Clone returns a deep copy of the relation (indexes are not copied).
// Cloning a cold relation materializes it: the clone is fully resident.
func (r *Relation) Clone() *Relation {
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
	for _, t := range r.Rows() {
		if !other.Contains(t) {
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
