package rel

import (
	"sync"
)

// Cursor is a pull source of tuples — the shape cold storage yields rows
// through. Yielded tuples must be treated as immutable but may be retained
// by the caller (cold tuples are decoded into private storage, not reused
// buffers).
type Cursor interface {
	// Next yields the next tuple, or (nil, false) when exhausted.
	Next() (Tuple, bool)
	// Remaining reports how many tuples the cursor still has to yield.
	// Implementations may overestimate for range scans whose boundary
	// blocks have not been decoded yet; they must never underestimate,
	// because the executor sizes join builds from it.
	Remaining() int
}

// ColdBase is an immutable, sorted tuple set living outside the relation's
// in-RAM overlay — in practice a predicate's rows inside a segment file.
// All methods must be safe for concurrent use: one base is shared by a
// relation and every snapshot taken from it. Scan must yield tuples in
// ascending column-major (keys.Compare) order and must not retain the
// prefix slice past the call — callers reuse probe buffers.
type ColdBase interface {
	Len() int
	Contains(t Tuple) bool
	// Scan returns a cursor over the tuples whose leading len(prefix)
	// columns equal prefix; a nil or empty prefix scans the whole base.
	Scan(prefix []Value) Cursor
}

// coldState pairs a ColdBase with a lazily materialized row slice. It is
// shared (by pointer) between a relation and its snapshots: the base is
// immutable, so one materialization serves every handle.
type coldState struct {
	base ColdBase
	once sync.Once
	mat  []Tuple
}

// rows materializes the base into RAM exactly once. Paths that need the
// full row slice — non-prefix index builds, Rows(), Row, thaw, checkpoint
// rendering — pay this; the streaming executor never does.
func (c *coldState) rows() []Tuple {
	c.once.Do(func() {
		out := make([]Tuple, 0, c.base.Len())
		cur := c.base.Scan(nil)
		for t, ok := cur.Next(); ok; t, ok = cur.Next() {
			out = append(out, t)
		}
		c.mat = out
	})
	return c.mat
}

// NewCold returns a relation whose base tuple set is served from base,
// with an initially empty in-RAM overlay on top. Reads merge both tiers;
// inserts land in the overlay (deduplicated against the base), which is
// exactly the memtable the checkpoint flush later turns into the next
// segment. base must not contain duplicate tuples.
func NewCold(arity int, base ColdBase) *Relation {
	r := New(arity)
	if base != nil {
		r.cold = &coldState{base: base}
	}
	return r
}

// Cold returns the relation's cold base, or nil when it is fully resident.
func (r *Relation) Cold() ColdBase {
	if r.cold == nil {
		return nil
	}
	return r.cold.base
}

// OverlayRows returns only the in-RAM overlay rows — the tuples inserted
// since the relation was rebased onto its cold base (all rows for a fully
// resident relation). This is the memtable content a checkpoint flush
// merges with the cold base into the next segment. The slice is fresh and
// the caller's to reorder; the tuples are row views it must not modify.
func (r *Relation) OverlayRows() []Tuple {
	lo, hi := r.bounds()
	return r.g.rows(lo, hi, r.arity)
}

// OverlayLen reports the number of overlay rows (see OverlayRows).
func (r *Relation) OverlayLen() int {
	lo, hi := r.bounds()
	return hi - lo
}

// thaw materializes the cold base into the in-RAM overlay, turning r back
// into a fully resident relation with identical content. It is the
// correctness net for Delete on a cold tuple: the engine never deletes
// EDB facts (the WAL has no delete record), so this path only triggers on
// direct library misuse, and correctness there beats speed. The thawed
// relation starts a new generation with an empty index cache: a bound-
// prefix index holds a pointer to the cold base, and snapshots taken
// before the thaw keep the old cache.
func (r *Relation) thaw() {
	base := r.cold.rows()
	rows := make([]Tuple, 0, len(base)+r.g.n)
	rows = append(rows, base...)
	rows = append(rows, r.g.rows(0, r.g.n, r.arity)...)
	thawed := FromRows(r.arity, rows)
	r.g, r.cold, r.shared = thawed.g, nil, false
	r.all.Store(nil)
}
