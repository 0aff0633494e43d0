package rel

import "testing"

func TestScanEmptyAndNil(t *testing.T) {
	var nilRel *Relation
	s := nilRel.Scan()
	if _, ok := s.Next(); ok {
		t.Fatal("nil relation scan yielded")
	}
	s = New(2).Scan()
	if _, ok := s.Next(); ok {
		t.Fatal("empty relation scan yielded")
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", s.Remaining())
	}
}

func TestScanSingleTupleAndReset(t *testing.T) {
	r := New(2)
	r.Insert(Tuple{1, 2})
	s := r.Scan()
	if s.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1", s.Remaining())
	}
	tup, ok := s.Next()
	if !ok || tup[0] != 1 || tup[1] != 2 {
		t.Fatalf("Next = %v, %v", tup, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted scan yielded again")
	}
	s.Reset()
	if s.Remaining() != 1 {
		t.Fatalf("Remaining after Reset = %d, want 1", s.Remaining())
	}
	if tup, ok := s.Next(); !ok || tup[0] != 1 {
		t.Fatalf("Next after Reset = %v, %v", tup, ok)
	}
}

// TestScanSnapshot pins the fixpoint-round contract: a cursor captures
// the rows at open time, so a round never sees tuples inserted while it
// drains.
func TestScanSnapshot(t *testing.T) {
	r := New(1)
	r.Insert(Tuple{1})
	s := r.Scan()
	r.Insert(Tuple{2})
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("scan saw %d rows, want the 1 present at open", n)
	}
	s2 := r.Scan()
	if s2.Remaining() != 2 {
		t.Fatal("new scan must see both rows")
	}
}

// TestIndexScan exercises the hash-join build side: bucket scans yield
// only matching tuples, missing keys yield empty scans, and the same
// built index serves repeated probes.
func TestIndexScan(t *testing.T) {
	r := New(2)
	r.Insert(Tuple{1, 10})
	r.Insert(Tuple{1, 11})
	r.Insert(Tuple{2, 20})
	idx := r.Index([]int{0})

	s := idx.Scan([]Value{1})
	if s.Remaining() != 2 {
		t.Fatalf("bucket 1 has %d tuples, want 2", s.Remaining())
	}
	for tup, ok := s.Next(); ok; tup, ok = s.Next() {
		if tup[0] != 1 {
			t.Fatalf("bucket 1 yielded %v", tup)
		}
	}
	miss := idx.Scan([]Value{3})
	if miss.Remaining() != 0 {
		t.Fatal("missing key yielded tuples")
	}
	// Reuse: probing the same index again works and reflects the same
	// snapshot.
	again := idx.Scan([]Value{2})
	if again.Remaining() != 1 {
		t.Fatal("bucket 2 lost tuples on reuse")
	}
}
