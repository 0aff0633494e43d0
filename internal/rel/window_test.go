package rel

import (
	"testing"
	"unsafe"
)

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// drain collects every tuple s yields, cloned.
func drain(s Scan) []Tuple {
	var out []Tuple
	for t, ok := s.Next(); ok; t, ok = s.Next() {
		out = append(out, t.Clone())
	}
	return out
}

func sameRows(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestWindow(t *testing.T) {
	t.Run("size class", func(t *testing.T) {
		// Every Window allocates a Relation (a seed, a sink's Delta, a
		// provenance round); the window bounds must not push it past the
		// 48-byte size class.
		if n := unsafe.Sizeof(Relation{}); n > 48 {
			t.Fatalf("sizeof(Relation) = %d, want <= 48", n)
		}
	})

	t.Run("read-only", func(t *testing.T) {
		r := FromTuples(2, []Tuple{tp(1, 2), tp(3, 4)})
		w := r.Window(0, 2)
		mustPanic(t, "Insert through a window", func() { w.Insert(tp(5, 6)) })
		mustPanic(t, "Delete through a window", func() { w.Delete(tp(1, 2)) })
		mustPanic(t, "InsertAll into a window", func() { w.InsertAll(r) })
		mustPanic(t, "Snapshot of a window", func() { w.Snapshot() })
		mustPanic(t, "Index of a window", func() { w.Index([]int{0}) })
		mustPanic(t, "Row past a window", func() { r.Window(0, 1).Row(1) })
		mustPanic(t, "Window past Len", func() { r.Window(1, 3) })
		mustPanic(t, "inverted Window", func() { r.Window(2, 1) })
		cold := NewCold(2, &tupleBase{rows: []Tuple{tp(1, 1)}})
		mustPanic(t, "Window of a cold relation", func() { cold.Window(0, 1) })
		if r.Len() != 2 || !w.Equal(r) {
			t.Fatalf("window writes changed the relation: %s", r)
		}
	})

	t.Run("nullary", func(t *testing.T) {
		r := New(0)
		before := r.Window(0, 0)
		r.Insert(Tuple{})
		w := r.Window(0, 1)
		if before.Len() != 0 || before.Contains(Tuple{}) || len(drain(before.Scan())) != 0 {
			t.Fatal("empty nullary window holds the empty tuple")
		}
		if w.Len() != 1 || !w.Contains(Tuple{}) || len(w.Row(0)) != 0 || len(w.Rows()) != 1 {
			t.Fatal("nullary window lost the empty tuple")
		}
		if got := drain(w.Scan()); len(got) != 1 || len(got[0]) != 0 {
			t.Fatalf("nullary window Scan = %v", got)
		}
		if r.Window(1, 1).Len() != 0 {
			t.Fatal("Window(1, 1) is not empty")
		}
	})

	t.Run("recut in place", func(t *testing.T) {
		// A round loop re-cuts one header per round: a zero Relation, then
		// the same header over later rows, then over a window's range.
		r := New(2)
		for i := range 4 {
			r.Insert(tp(Value(i%2), Value(i)))
		}
		r.Index([]int{0})
		var w Relation
		w.Recut(r, 0, 2)
		if !sameRows(w.Rows(), []Tuple{tp(0, 0), tp(1, 1)}) {
			t.Fatalf("Recut(0, 2) = %v", w.Rows())
		}
		for i := 4; i < 100; i++ {
			r.Insert(tp(Value(i%2), Value(i)))
		}
		w.Recut(r, 97, 100)
		if got, want := drain(w.Probe([]int{0}, []Value{1})), []Tuple{tp(1, 97), tp(1, 99)}; !sameRows(got, want) {
			t.Fatalf("re-cut Probe(1) = %v, want %v", got, want)
		}
		outer := r.Window(10, 20)
		w.Recut(outer, 1, 3)
		if !sameRows(w.Rows(), []Tuple{tp(1, 11), tp(0, 12)}) || !w.Equal(outer.Window(1, 3)) {
			t.Fatalf("Recut of a window = %v", w.Rows())
		}
		mustPanic(t, "Insert through a re-cut header", func() { w.Insert(tp(5, 6)) })
		mustPanic(t, "Recut past Len", func() { w.Recut(r, 99, 101) })
	})

	t.Run("probe cut at both ends", func(t *testing.T) {
		// Rows (k, i) for i = 0..11 with k alternating 1 and 2: both keys'
		// buckets span the whole relation.
		r := New(2)
		for i := range 12 {
			r.Insert(tp(Value(1+i%2), Value(i)))
		}
		r.Index([]int{0})
		w := r.Window(3, 9)
		got := drain(w.Probe([]int{0}, []Value{1}))
		want := []Tuple{tp(1, 4), tp(1, 6), tp(1, 8)}
		if !sameRows(got, want) {
			t.Fatalf("Probe(1) on rows 3..8 = %v, want %v", got, want)
		}
		if got := drain(w.Probe([]int{0}, []Value{3})); len(got) != 0 {
			t.Fatalf("Probe of an absent key = %v", got)
		}
		// A window of a window reads the inner range of the outer one.
		inner := w.Window(1, 3)
		if got, want := inner.Rows(), []Tuple{tp(1, 4), tp(2, 5)}; !sameRows(got, want) {
			t.Fatalf("window of a window = %v, want %v", got, want)
		}
		if got := drain(inner.Probe([]int{0}, []Value{2})); !sameRows(got, []Tuple{tp(2, 5)}) {
			t.Fatalf("inner Probe(2) = %v", got)
		}
		// Probe on a full relation is the index scan.
		if got := drain(r.Probe([]int{0}, []Value{2})); len(got) != 6 {
			t.Fatalf("relation Probe(2) = %v", got)
		}
	})

	t.Run("survives growth", func(t *testing.T) {
		r := New(2)
		for i := range 6 {
			r.Insert(tp(Value(i%3), Value(i)))
		}
		r.Index([]int{0})
		w := r.Window(2, 5)
		want := r.Rows()[2:5]
		want = []Tuple{want[0].Clone(), want[1].Clone(), want[2].Clone()}
		vals, slots := &r.g.vals[0], len(r.g.set.slots)
		for i := 6; i < 2000; i++ {
			r.Insert(tp(Value(i%3), Value(i)))
		}
		if &r.g.vals[0] == vals || len(r.g.set.slots) == slots {
			t.Fatal("appends did not reallocate the values and grow the row table")
		}
		if w.Len() != 3 || !sameRows(w.Rows(), want) || !sameRows(drain(w.Scan()), want) {
			t.Fatalf("window rows = %v, want %v", w.Rows(), want)
		}
		for i, tu := range want {
			if !w.Row(i).Equal(tu) || !w.Contains(tu) {
				t.Fatalf("window lost row %d = %v", i, tu)
			}
		}
		for _, out := range []Tuple{tp(0, 0), tp(2, 5), tp(1, 1000)} {
			if !r.Contains(out) || w.Contains(out) {
				t.Fatalf("window Contains(%v) outside its rows", out)
			}
		}
		for k := range Value(3) {
			var exp []Tuple
			for _, tu := range want {
				if tu[0] == k {
					exp = append(exp, tu)
				}
			}
			if got := drain(w.Probe([]int{0}, []Value{k})); !sameRows(got, exp) {
				t.Fatalf("Probe(%d) = %v, want %v", k, got, exp)
			}
		}
		if c := w.Clone(); c.Len() != 3 || !c.Equal(w) {
			t.Fatalf("Clone of a window = %s", c)
		}
	})
}

// tupleBase is a minimal sorted ColdBase for the window tests.
type tupleBase struct{ rows []Tuple }

func (b *tupleBase) Len() int { return len(b.rows) }

func (b *tupleBase) Contains(t Tuple) bool {
	for _, u := range b.rows {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

func (b *tupleBase) Scan([]Value) Cursor { return &tupleCursor{rows: b.rows} }

type tupleCursor struct{ rows []Tuple }

func (c *tupleCursor) Next() (Tuple, bool) {
	if len(c.rows) == 0 {
		return nil, false
	}
	t := c.rows[0]
	c.rows = c.rows[1:]
	return t, true
}

func (c *tupleCursor) Remaining() int { return len(c.rows) }
