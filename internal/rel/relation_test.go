package rel

import (
	"testing"
	"testing/quick"

	"sepdl/internal/symtab"
)

func tp(vs ...Value) Tuple { return Tuple(vs) }

func TestInsertDedup(t *testing.T) {
	r := New(2)
	if !r.Insert(tp(1, 2)) {
		t.Fatal("first insert reported duplicate")
	}
	if r.Insert(tp(1, 2)) {
		t.Fatal("duplicate insert reported new")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestInsertClones(t *testing.T) {
	r := New(2)
	row := tp(1, 2)
	r.Insert(row)
	row[0] = 99
	if !r.Contains(tp(1, 2)) {
		t.Fatal("relation aliased caller's tuple storage")
	}
	// Row views are capped: appending to one cannot overwrite the next
	// row of the flat value array.
	r.Insert(tp(3, 4))
	s, b := r.Scan(), r.Index([]int{0}).Scan([]Value{1})
	scanned, _ := s.Next()
	probed, _ := b.Next()
	for _, v := range []Tuple{r.Row(0), r.Rows()[0], scanned, probed, r.Index([]int{0}).Lookup([]Value{1})[0]} {
		_ = append(v, 99, 99)
	}
	if !r.Row(1).Equal(tp(3, 4)) {
		t.Fatalf("appending to a row view overwrote the next row: %v", r.Row(1))
	}
}

func TestInsertWrongArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on arity mismatch")
		}
	}()
	New(2).Insert(tp(1))
}

func TestContains(t *testing.T) {
	r := New(3)
	r.Insert(tp(1, 2, 3))
	if !r.Contains(tp(1, 2, 3)) {
		t.Fatal("Contains missed present tuple")
	}
	if r.Contains(tp(3, 2, 1)) {
		t.Fatal("Contains found absent tuple")
	}
	if r.Contains(tp(1, 2)) {
		t.Fatal("Contains accepted wrong arity")
	}
}

func TestZeroArity(t *testing.T) {
	r := New(0)
	if r.Contains(tp()) {
		t.Fatal("empty nullary relation contains the empty tuple")
	}
	if !r.Insert(tp()) {
		t.Fatal("inserting empty tuple failed")
	}
	if r.Insert(tp()) {
		t.Fatal("empty tuple inserted twice")
	}
	if !r.Contains(tp()) || r.Len() != 1 {
		t.Fatal("nullary relation broken after insert")
	}
	// Every read path yields exactly one empty tuple: the row count is
	// kept apart from the (empty) value array.
	drain := func(name string, s Scan) {
		t.Helper()
		n := 0
		for tu, ok := s.Next(); ok; tu, ok = s.Next() {
			if len(tu) != 0 {
				t.Fatalf("%s yielded %v", name, tu)
			}
			n++
		}
		if n != 1 {
			t.Fatalf("%s yielded %d tuples, want 1", name, n)
		}
	}
	drain("Scan", r.Scan())
	drain("Index(nil).Scan(nil)", r.Index(nil).Scan(nil))
	if tu := r.Row(0); len(tu) != 0 {
		t.Fatalf("Row(0) = %v", tu)
	}
	if rows := r.Rows(); len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("Rows = %v", rows)
	}
	if !r.Delete(tp()) || r.Len() != 0 || r.Contains(tp()) {
		t.Fatal("nullary relation broken after delete")
	}
	if s := r.Scan(); s.Remaining() != 0 {
		t.Fatal("empty nullary relation scan yielded")
	}
}

// TestInsertAllocs pins the flat row storage: inserting distinct rows
// through one reused buffer allocates only as the value array, the row
// table and the relation itself grow, never per row; and draining a scan
// or an index probe of a resident relation allocates nothing.
func TestInsertAllocs(t *testing.T) {
	const n = 1000
	row := make(Tuple, 2)
	allocs := testing.AllocsPerRun(10, func() {
		r := New(2)
		for i := range n {
			row[0], row[1] = Value(i), Value(i%7)
			r.Insert(row)
		}
	})
	if allocs > 32 {
		t.Fatalf("%d distinct inserts allocate %v times, want at most 32", n, allocs)
	}

	r := New(2)
	for i := range n {
		r.Insert(Tuple{Value(i), Value(i % 7)})
	}
	idx := r.Index([]int{1})
	key := []Value{3}
	allocs = testing.AllocsPerRun(10, func() {
		s := r.Scan()
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
		b := idx.Scan(key)
		for _, ok := b.Next(); ok; _, ok = b.Next() {
		}
	})
	if allocs != 0 {
		t.Fatalf("draining Scan and Index.Scan allocates %v times, want 0", allocs)
	}
}

func TestEncodeInjective(t *testing.T) {
	// Values that collide under naive byte truncation must not collide.
	r := New(1)
	r.Insert(tp(1))
	r.Insert(tp(257))
	r.Insert(tp(1 << 16))
	if r.Len() != 3 {
		t.Fatalf("encoding collided: Len = %d, want 3", r.Len())
	}
}

func TestIndexLookup(t *testing.T) {
	r := New(2)
	r.Insert(tp(1, 10))
	r.Insert(tp(1, 11))
	r.Insert(tp(2, 20))
	idx := r.Index([]int{0})
	if got := len(idx.Lookup([]Value{1})); got != 2 {
		t.Fatalf("Lookup(1) returned %d tuples, want 2", got)
	}
	if got := len(idx.Lookup([]Value{3})); got != 0 {
		t.Fatalf("Lookup(3) returned %d tuples, want 0", got)
	}
}

func TestIndexStaysCurrentAfterInsert(t *testing.T) {
	r := New(2)
	r.Insert(tp(1, 10))
	idx := r.Index([]int{0})
	r.Insert(tp(1, 11))
	if got := len(idx.Lookup([]Value{1})); got != 2 {
		t.Fatalf("index not maintained: got %d tuples, want 2", got)
	}
}

func TestIndexMultiColumn(t *testing.T) {
	r := New(3)
	r.Insert(tp(1, 2, 3))
	r.Insert(tp(1, 2, 4))
	r.Insert(tp(1, 3, 5))
	idx := r.Index([]int{0, 1})
	if got := len(idx.Lookup([]Value{1, 2})); got != 2 {
		t.Fatalf("multi-column lookup returned %d, want 2", got)
	}
	if idx.Buckets() != 2 {
		t.Fatalf("Buckets = %d, want 2", idx.Buckets())
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad index column")
		}
	}()
	New(2).Index([]int{5})
}

func TestProject(t *testing.T) {
	r := New(3)
	r.Insert(tp(1, 2, 3))
	r.Insert(tp(1, 5, 3))
	p := r.Project([]int{2, 0})
	if p.Arity() != 2 || p.Len() != 1 || !p.Contains(tp(3, 1)) {
		t.Fatalf("Project wrong: %v", p)
	}
}

func TestSelect(t *testing.T) {
	r := New(2)
	r.Insert(tp(1, 10))
	r.Insert(tp(2, 20))
	s := r.Select(0, 1)
	if s.Len() != 1 || !s.Contains(tp(1, 10)) {
		t.Fatalf("Select wrong: %v", s)
	}
}

func TestUnionDifference(t *testing.T) {
	a := FromTuples(1, []Tuple{tp(1), tp(2)})
	b := FromTuples(1, []Tuple{tp(2), tp(3)})
	u := a.Union(b)
	if u.Len() != 3 {
		t.Fatalf("Union Len = %d, want 3", u.Len())
	}
	d := a.Difference(b)
	if d.Len() != 1 || !d.Contains(tp(1)) {
		t.Fatalf("Difference wrong: %v", d)
	}
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatal("Union/Difference mutated operands")
	}
}

func TestJoin(t *testing.T) {
	a := FromTuples(2, []Tuple{tp(1, 2), tp(2, 3)})
	b := FromTuples(2, []Tuple{tp(2, 20), tp(3, 30), tp(4, 40)})
	j := a.Join(b, []int{1}, []int{0})
	want := FromTuples(3, []Tuple{tp(1, 2, 20), tp(2, 3, 30)})
	if !j.Equal(want) {
		t.Fatalf("Join = %v, want %v", j, want)
	}
}

func TestEqual(t *testing.T) {
	a := FromTuples(2, []Tuple{tp(1, 2), tp(3, 4)})
	b := FromTuples(2, []Tuple{tp(3, 4), tp(1, 2)})
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	b.Insert(tp(5, 6))
	if a.Equal(b) {
		t.Fatal("Equal ignored extra tuple")
	}
}

func TestDump(t *testing.T) {
	st := symtab.New()
	r := New(2)
	r.Insert(tp(st.Intern("tom"), st.Intern("radio")))
	if got, want := r.Dump(st), "{(tom,radio)}"; got != want {
		t.Fatalf("Dump = %q, want %q", got, want)
	}
}

func TestQuickInsertContains(t *testing.T) {
	r := New(2)
	f := func(a, b int16) bool {
		tu := tp(Value(a), Value(b))
		r.Insert(tu)
		return r.Contains(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickProjectLen(t *testing.T) {
	// Projection never increases cardinality.
	f := func(pairs []struct{ A, B int8 }) bool {
		r := New(2)
		for _, p := range pairs {
			r.Insert(tp(Value(p.A), Value(p.B)))
		}
		return r.Project([]int{0}).Len() <= r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJoinSubsetOfProduct(t *testing.T) {
	f := func(xs, ys []struct{ A, B int8 }) bool {
		a := New(2)
		for _, p := range xs {
			a.Insert(tp(Value(p.A), Value(p.B)))
		}
		b := New(2)
		for _, p := range ys {
			b.Insert(tp(Value(p.A), Value(p.B)))
		}
		j := a.Join(b, []int{1}, []int{0})
		return j.Len() <= a.Len()*b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectCols(t *testing.T) {
	r := FromTuples(3, []Tuple{tp(1, 2, 3), tp(1, 2, 4), tp(1, 5, 3)})
	s := r.SelectCols([]int{0, 1}, []Value{1, 2})
	if s.Len() != 2 {
		t.Fatalf("SelectCols = %v", s)
	}
}

func TestEmptyAndRows(t *testing.T) {
	r := New(1)
	if !r.Empty() {
		t.Fatal("new relation not empty")
	}
	r.Insert(tp(1))
	if r.Empty() {
		t.Fatal("nonempty relation reports empty")
	}
	if len(r.Rows()) != 1 {
		t.Fatalf("Rows = %v", r.Rows())
	}
}

func TestRelationString(t *testing.T) {
	r := FromTuples(2, []Tuple{tp(2, 1), tp(1, 2)})
	if got := r.String(); got != "{(1,2) (2,1)}" {
		t.Fatalf("String = %q", got)
	}
}

func TestNegativeArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative arity accepted")
		}
	}()
	New(-1)
}

func TestTupleCloneEqual(t *testing.T) {
	a := tp(1, 2, 3)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = 9
	if a.Equal(b) || a[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if a.Equal(tp(1, 2)) {
		t.Fatal("length mismatch equal")
	}
}

func TestDelete(t *testing.T) {
	r := FromTuples(2, []Tuple{tp(1, 2), tp(3, 4), tp(5, 6)})
	if !r.Delete(tp(3, 4)) {
		t.Fatal("Delete missed present tuple")
	}
	if r.Delete(tp(3, 4)) {
		t.Fatal("double delete reported present")
	}
	if r.Len() != 2 || r.Contains(tp(3, 4)) {
		t.Fatalf("after delete: %v", r)
	}
	if !r.Contains(tp(1, 2)) || !r.Contains(tp(5, 6)) {
		t.Fatal("delete removed wrong tuples")
	}
	if r.Delete(tp(1)) {
		t.Fatal("wrong-arity delete reported present")
	}
}

// TestRowPastLen pins the bound on a resident relation's Row: a delete
// leaves the freed row's values inside the array's capacity, and reading
// past Len must panic instead of returning them.
func TestRowPastLen(t *testing.T) {
	r := New(2)
	r.Insert(tp(7, 8))
	r.Insert(tp(9, 10))
	r.Delete(tp(9, 10))
	if got := r.Row(0); !got.Equal(tp(7, 8)) {
		t.Fatalf("Row(0) = %v, want [7 8]", got)
	}
	mustPanic(t, "Row past Len after a delete", func() { r.Row(1) })
	mustPanic(t, "negative Row", func() { r.Row(-1) })

	z := New(0)
	mustPanic(t, "Row of an empty nullary relation", func() { z.Row(0) })
	z.Insert(Tuple{})
	if got := z.Row(0); len(got) != 0 {
		t.Fatalf("nullary Row(0) = %v", got)
	}
	mustPanic(t, "Row past a nullary relation", func() { z.Row(1) })
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	r := FromTuples(2, []Tuple{tp(1, 10), tp(1, 11), tp(2, 20)})
	idx := r.Index([]int{0})
	r.Delete(tp(1, 10))
	if got := len(idx.Lookup([]Value{1})); got != 1 {
		t.Fatalf("index after delete: %d tuples, want 1", got)
	}
	r.Delete(tp(2, 20))
	if got := len(idx.Lookup([]Value{2})); got != 0 {
		t.Fatalf("emptied bucket returns %d tuples", got)
	}
	// Reinsert after delete must show up in the maintained index.
	r.Insert(tp(2, 20))
	if got := len(idx.Lookup([]Value{2})); got != 1 {
		t.Fatalf("reinsert after delete: %d tuples", got)
	}
	// Deleting through a view of the relation's own first row: the last
	// row moves into that storage, and the index must still drop the
	// deleted key, not the moved one.
	r.Insert(tp(3, 30))
	r.Delete(r.Row(0))
	if got := idx.Lookup([]Value{1}); len(got) != 0 {
		t.Fatalf("deleted key still indexed: %v", got)
	}
	if got := idx.Lookup([]Value{3}); len(got) != 1 || !got[0].Equal(tp(3, 30)) {
		t.Fatalf("moved row's bucket = %v, want [(3,30)]", got)
	}
}

func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	f := func(pairs []struct{ A, B int8 }) bool {
		r := New(2)
		for _, p := range pairs {
			r.Insert(tp(Value(p.A), Value(p.B)))
		}
		for _, p := range pairs {
			r.Delete(tp(Value(p.A), Value(p.B)))
		}
		return r.Len() == 0 && r.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
