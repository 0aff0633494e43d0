package rel_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sepdl/internal/keys"
	"sepdl/internal/rel"
)

// sliceBase is the reference rel.ColdBase: a sorted in-RAM tuple slice. The
// segment package's real base is tested against its own files; rel's cold
// tier only needs the interface contract.
type sliceBase struct {
	rows  []rel.Tuple
	scans int // Scan calls, for Reset-reopens assertions
}

func newSliceBase(rows []rel.Tuple) *sliceBase {
	out := make([]rel.Tuple, len(rows))
	copy(out, rows)
	keys.Sort(out)
	return &sliceBase{rows: out}
}

func (b *sliceBase) Len() int { return len(b.rows) }

func (b *sliceBase) Contains(t rel.Tuple) bool {
	i := sort.Search(len(b.rows), func(i int) bool { return keys.Compare(b.rows[i], t) >= 0 })
	return i < len(b.rows) && keys.Compare(b.rows[i], t) == 0
}

func (b *sliceBase) Scan(prefix []rel.Value) rel.Cursor {
	b.scans++
	lo := sort.Search(len(b.rows), func(i int) bool { return keys.ComparePrefix(b.rows[i], prefix) >= 0 })
	hi := sort.Search(len(b.rows), func(i int) bool { return keys.ComparePrefix(b.rows[i], prefix) > 0 })
	return &sliceCursor{rows: b.rows[lo:hi]}
}

type sliceCursor struct {
	rows []rel.Tuple
	pos  int
}

func (c *sliceCursor) Next() (rel.Tuple, bool) {
	if c.pos >= len(c.rows) {
		return nil, false
	}
	t := c.rows[c.pos]
	c.pos++
	return t, true
}

func (c *sliceCursor) Remaining() int { return len(c.rows) - c.pos }

func randTuples(rng *rand.Rand, n, arity, domain int) []rel.Tuple {
	set := map[string]rel.Tuple{}
	for len(set) < n {
		t := make(rel.Tuple, arity)
		for i := range t {
			t[i] = rel.Value(rng.Intn(domain))
		}
		set[fmt.Sprint(t)] = t
	}
	out := make([]rel.Tuple, 0, n)
	for _, t := range set {
		out = append(out, t)
	}
	return out
}

// sortedRows returns a key-sorted copy for order-insensitive comparison.
func sortedRows(rows []rel.Tuple) []rel.Tuple {
	out := make([]rel.Tuple, len(rows))
	copy(out, rows)
	keys.Sort(out)
	return out
}

func equalRows(a, b []rel.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if keys.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestColdEquivalence: a cold relation with half its tuples in the base
// and half in the overlay answers Len/Contains/Rows/Scan identically to a
// fully resident relation with the same content.
func TestColdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := randTuples(rng, 400, 3, 12)
	base, over := all[:250], all[250:]

	cold := rel.NewCold(3, newSliceBase(base))
	hot := rel.New(3)
	for _, t2 := range base {
		hot.Insert(t2)
	}
	for _, t2 := range over {
		if !cold.Insert(t2) {
			t.Fatalf("overlay insert %v reported duplicate", t2)
		}
		hot.Insert(t2)
	}
	// Re-inserting base tuples must dedup against the cold tier.
	for _, t2 := range base[:20] {
		if cold.Insert(t2) {
			t.Fatalf("insert of cold-resident %v not deduplicated", t2)
		}
	}

	if cold.Len() != hot.Len() {
		t.Fatalf("Len = %d, want %d", cold.Len(), hot.Len())
	}
	for _, t2 := range all {
		if !cold.Contains(t2) {
			t.Fatalf("Contains(%v) = false", t2)
		}
	}
	if cold.Contains(rel.Tuple{99, 99, 99}) {
		t.Fatal("Contains of absent tuple = true")
	}
	if !equalRows(sortedRows(cold.Rows()), sortedRows(hot.Rows())) {
		t.Fatal("Rows() diverge from resident relation")
	}
	if !cold.Equal(hot) || !hot.Equal(cold) {
		t.Fatal("Equal() diverges between cold and resident")
	}

	var got []rel.Tuple
	sc := cold.Scan()
	for tu, ok := sc.Next(); ok; tu, ok = sc.Next() {
		got = append(got, tu)
	}
	if !equalRows(sortedRows(got), sortedRows(hot.Rows())) {
		t.Fatal("Scan yields diverge from resident relation")
	}
}

// TestColdScanResetRemaining: Remaining never underestimates and counts
// down to 0; Reset reopens the cold cursor and replays the same tuples.
func TestColdScanResetRemaining(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	all := randTuples(rng, 120, 2, 16)
	b := newSliceBase(all[:80])
	r := rel.NewCold(2, b)
	for _, t2 := range all[80:] {
		r.Insert(t2)
	}

	sc := r.Scan()
	var first []rel.Tuple
	for {
		rem := sc.Remaining()
		tu, ok := sc.Next()
		if !ok {
			if rem != 0 {
				t.Fatalf("Remaining = %d at exhaustion", rem)
			}
			break
		}
		if rem < 1 {
			t.Fatalf("Remaining = %d underestimates before a successful Next", rem)
		}
		first = append(first, tu)
	}
	if len(first) != 120 {
		t.Fatalf("scan yielded %d tuples, want 120", len(first))
	}

	scansBefore := b.scans
	sc.Reset()
	if b.scans != scansBefore+1 {
		t.Fatalf("Reset did not reopen the cold cursor (scans %d -> %d)", scansBefore, b.scans)
	}
	var second []rel.Tuple
	for tu, ok := sc.Next(); ok; tu, ok = sc.Next() {
		second = append(second, tu)
	}
	if !equalRows(first, second) {
		t.Fatal("Reset replay diverges from first pass")
	}
}

// TestColdIndexPrefix: an index on the leading columns of a cold relation
// serves probes by cold range scan + overlay bucket, without
// materializing the base; a non-prefix index falls back to full
// materialization. Both must agree with a resident oracle.
func TestColdIndexPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	all := randTuples(rng, 300, 3, 8)
	base := newSliceBase(all[:200])
	cold := rel.NewCold(3, base)
	hot := rel.New(3)
	for _, t2 := range all[:200] {
		hot.Insert(t2)
	}
	for _, t2 := range all[200:] {
		cold.Insert(t2)
		hot.Insert(t2)
	}

	for _, cols := range [][]int{{0}, {0, 1}, {1}, {2, 0}} {
		ci, hi := cold.Index(cols), hot.Index(cols)
		for v1 := 0; v1 < 8; v1++ {
			for v2 := 0; v2 < 8; v2++ {
				vals := []rel.Value{rel.Value(v1), rel.Value(v2)}[:len(cols)]
				got := sortedRows(ci.Lookup(vals))
				want := sortedRows(hi.Lookup(vals))
				if !equalRows(got, want) {
					t.Fatalf("cols %v probe %v: got %d rows, want %d", cols, vals, len(got), len(want))
				}

				// Index.Scan must agree too, and must not retain the
				// probe buffer (the executor reuses vals).
				sc := ci.Scan(vals)
				var scanned []rel.Tuple
				for tu, ok := sc.Next(); ok; tu, ok = sc.Next() {
					scanned = append(scanned, tu)
				}
				vals[0] = 99 // clobber the probe buffer
				sc.Reset()
				n := 0
				for _, ok := sc.Next(); ok; _, ok = sc.Next() {
					n++
				}
				vals[0] = rel.Value(v1)
				if !equalRows(sortedRows(scanned), want) || n != len(want) {
					t.Fatalf("cols %v probe %v: Scan %d/%d rows, want %d", cols, vals, len(scanned), n, len(want))
				}
			}
		}
	}
}

// TestColdSnapshotIsolation: a snapshot shares the cold base but not
// post-snapshot overlay writes.
func TestColdSnapshotIsolation(t *testing.T) {
	base := newSliceBase([]rel.Tuple{{1, 1}, {2, 2}})
	r := rel.NewCold(2, base)
	r.Insert(rel.Tuple{3, 3})
	snap := r.Snapshot()
	r.Insert(rel.Tuple{4, 4})

	if snap.Len() != 3 || r.Len() != 4 {
		t.Fatalf("Len snap=%d r=%d, want 3 and 4", snap.Len(), r.Len())
	}
	if snap.Contains(rel.Tuple{4, 4}) {
		t.Fatal("snapshot sees post-snapshot write")
	}
	if !snap.Contains(rel.Tuple{1, 1}) || !snap.Contains(rel.Tuple{3, 3}) {
		t.Fatal("snapshot lost pre-snapshot content")
	}
}

// TestColdDeleteThaws: deleting a cold-resident tuple materializes the
// base (the correctness net — the engine itself never deletes EDB facts)
// and the relation keeps answering correctly, fully resident.
func TestColdDeleteThaws(t *testing.T) {
	base := newSliceBase([]rel.Tuple{{1, 1}, {2, 2}, {3, 3}})
	r := rel.NewCold(2, base)
	r.Insert(rel.Tuple{4, 4})
	r.Index([]int{0}) // force an index the thaw must leave behind

	if !r.Delete(rel.Tuple{2, 2}) {
		t.Fatal("Delete of cold tuple = false")
	}
	if r.Cold() != nil {
		t.Fatal("relation still cold after Delete of a base tuple")
	}
	if r.Len() != 3 || r.Contains(rel.Tuple{2, 2}) {
		t.Fatalf("post-thaw content wrong: len=%d", r.Len())
	}
	for _, want := range []rel.Tuple{{1, 1}, {3, 3}, {4, 4}} {
		if !r.Contains(want) {
			t.Fatalf("post-thaw lost %v", want)
		}
		if got := r.Index([]int{0}).Lookup(want[:1]); len(got) != 1 {
			t.Fatalf("post-thaw index probe %v = %d rows, want 1", want[:1], len(got))
		}
	}
	// Deleting an overlay tuple on a still-cold relation must not thaw.
	r2 := rel.NewCold(2, newSliceBase([]rel.Tuple{{1, 1}}))
	r2.Insert(rel.Tuple{5, 5})
	if !r2.Delete(rel.Tuple{5, 5}) || r2.Cold() == nil {
		t.Fatal("overlay delete should succeed without thawing")
	}
}
