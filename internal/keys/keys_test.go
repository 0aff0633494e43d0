package keys

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"sepdl/internal/rel"
)

// TestByteOrderMatchesTupleOrder is the property the whole segment layout
// rests on: sorting encoded rows byte-wise and sorting tuples column-major
// must agree, for every pair.
func TestByteOrderMatchesTupleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, arity = 300, 3
	tuples := make([]rel.Tuple, n)
	for i := range tuples {
		tp := make(rel.Tuple, arity)
		for j := range tp {
			tp[j] = rel.Value(rng.Intn(50))
		}
		tuples[i] = tp
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := tuples[i], tuples[j]
			byteCmp := bytes.Compare(AppendTuple(nil, a), AppendTuple(nil, b))
			if got := Compare(a, b); sign(got) != sign(byteCmp) {
				t.Fatalf("Compare(%v, %v) = %d, bytes.Compare = %d", a, b, got, byteCmp)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestRoundTrip(t *testing.T) {
	in := rel.Tuple{0, 5, 1<<31 - 1}
	enc := AppendTuple(nil, in)
	if len(enc) != len(in)*Width {
		t.Fatalf("encoded %d bytes, want %d", len(enc), len(in)*Width)
	}
	out, err := DecodeTuple(enc, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if Compare(in, out) != 0 {
		t.Fatalf("round trip %v -> %v", in, out)
	}
	if _, err := DecodeTuple(enc[:5], len(in)); err == nil {
		t.Fatal("truncated row decoded without error")
	}
}

// TestDecodeValuesRoundTrip: a block of rows encoded back to back with
// AppendTuple decodes with one DecodeValues call into the same values, in
// row-major order, and a short buffer panics rather than reading garbage.
func TestDecodeValuesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const rows, arity = 37, 3
	var enc []byte
	var want []rel.Value
	for i := 0; i < rows; i++ {
		tp := make(rel.Tuple, arity)
		for j := range tp {
			tp[j] = rel.Value(rng.Int31())
		}
		tp[i%arity] = 1<<31 - 1 // every column sees the top of the range
		enc = AppendTuple(enc, tp)
		want = append(want, tp...)
	}
	got := make([]rel.Value, rows*arity)
	DecodeValues(got, enc)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d (row %d col %d) = %d, want %d", i, i/arity, i%arity, got[i], want[i])
		}
	}
	DecodeValues(nil, nil) // zero values from an empty buffer is fine
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeValues over a short buffer did not panic")
		}
	}()
	DecodeValues(make([]rel.Value, 2), enc[:7])
}

// TestPrefixRunIsContiguous: after Sort, the tuples matching a bound
// prefix occupy one contiguous run, and ComparePrefix brackets it.
func TestPrefixRunIsContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tuples := make([]rel.Tuple, 200)
	for i := range tuples {
		tuples[i] = rel.Tuple{rel.Value(rng.Intn(8)), rel.Value(rng.Intn(8))}
	}
	Sort(tuples)
	for v := rel.Value(0); v < 8; v++ {
		prefix := []rel.Value{v}
		lo := sort.Search(len(tuples), func(i int) bool { return ComparePrefix(tuples[i], prefix) >= 0 })
		hi := sort.Search(len(tuples), func(i int) bool { return ComparePrefix(tuples[i], prefix) > 0 })
		for i, tp := range tuples {
			inRun := i >= lo && i < hi
			if (tp[0] == v) != inRun {
				t.Fatalf("prefix %v: tuple %v at %d, run [%d, %d)", prefix, tp, i, lo, hi)
			}
		}
	}
}

func TestSortIsDeterministic(t *testing.T) {
	a := []rel.Tuple{{3, 1}, {1, 2}, {1, 1}, {2, 9}}
	Sort(a)
	want := []rel.Tuple{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	for i := range a {
		if Compare(a[i], want[i]) != 0 {
			t.Fatalf("sorted[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}
