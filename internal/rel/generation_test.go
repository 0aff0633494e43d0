package rel_test

import (
	"sync"
	"testing"

	"sepdl/internal/rel"
)

// indexCols are the column sets the generation tests probe: a leading
// prefix (range-scanned on a cold relation), a non-prefix column
// (materialized on a cold relation) and the full key.
var indexCols = [][]int{{0}, {1}, {0, 1}}

// checkIndexes asserts that every Index(cols).Lookup on h returns exactly
// the rows of want matching the probe, for every probe over a small value
// domain — an index left over from another generation shows up as a
// missing or extra row.
func checkIndexes(t *testing.T, name string, h *rel.Relation, want []rel.Tuple) {
	t.Helper()
	for _, cols := range indexCols {
		idx := h.Index(cols)
		for a := rel.Value(0); a < 8; a++ {
			for b := rel.Value(0); b < 8; b++ {
				vals := []rel.Value{a, b}[:len(cols)]
				var match []rel.Tuple
				for _, w := range want {
					ok := true
					for i, c := range cols {
						ok = ok && w[c] == vals[i]
					}
					if ok {
						match = append(match, w)
					}
				}
				if got := idx.Lookup(vals); !equalRows(sortedRows(got), sortedRows(match)) {
					t.Fatalf("%s: Index(%v).Lookup(%v) = %v, want %v", name, cols, vals, got, match)
				}
			}
		}
	}
}

// TestSnapshotSharesGenerationIndex: an unmodified relation hands the same
// *Index to the live handle and to every snapshot, whichever handle built
// it first, and snapshots of snapshots stay in the generation.
func TestSnapshotSharesGenerationIndex(t *testing.T) {
	for _, cold := range []bool{false, true} {
		var r *rel.Relation
		if cold {
			r = rel.NewCold(2, newSliceBase([]rel.Tuple{{1, 2}, {2, 3}, {3, 4}}))
		} else {
			r = rel.FromTuples(2, []rel.Tuple{{1, 2}, {2, 3}, {3, 4}})
		}
		r.Insert(rel.Tuple{4, 5})
		live := r.Index([]int{0}) // built before any snapshot exists
		s1 := r.Snapshot()
		s2 := r.Snapshot()
		s3 := s2.Snapshot()
		for _, cols := range indexCols {
			want := s1.Index(cols) // built by a snapshot for the others
			for i, h := range []*rel.Relation{r, s2, s3} {
				if got := h.Index(cols); got != want {
					t.Fatalf("cold=%v cols=%v: handle %d got a different index", cold, cols, i)
				}
			}
		}
		if s1.Index([]int{0}) != live {
			t.Fatalf("cold=%v: snapshot rebuilt the live handle's index", cold)
		}
	}
}

// TestSnapshotIndexesSurviveWrites: after Insert, Delete and a cold thaw on
// the live handle, every older snapshot's indexes answer exactly its own
// rows — whether built before or after the write — and the live handle's
// answer exactly the new rows.
func TestSnapshotIndexesSurviveWrites(t *testing.T) {
	base := []rel.Tuple{{1, 1}, {1, 2}, {2, 1}, {3, 3}}
	r := rel.NewCold(2, newSliceBase(base))
	r.Insert(rel.Tuple{1, 3})
	content := append(append([]rel.Tuple{}, base...), rel.Tuple{1, 3})

	type gen struct {
		name string
		snap *rel.Relation
		rows []rel.Tuple
	}
	var gens []gen
	take := func(name string, warm bool) {
		s := r.Snapshot()
		if warm {
			checkIndexes(t, name+" (at snapshot)", s, content)
		}
		gens = append(gens, gen{name, s, append([]rel.Tuple{}, content...)})
	}
	without := func(rows []rel.Tuple, gone rel.Tuple) []rel.Tuple {
		var out []rel.Tuple
		for _, x := range rows {
			if !x.Equal(gone) {
				out = append(out, x)
			}
		}
		return out
	}

	take("gen0", true)
	take("gen0-cold", false) // its first build happens after the writes
	r.Insert(rel.Tuple{2, 2})
	content = append(content, rel.Tuple{2, 2})
	checkIndexes(t, "live after insert", r, content)
	r.Insert(rel.Tuple{3, 1}) // unshared: maintained in place
	content = append(content, rel.Tuple{3, 1})
	checkIndexes(t, "live after second insert", r, content)

	take("gen1", true)
	r.Delete(rel.Tuple{1, 3}) // overlay tuple: no thaw
	content = without(content, rel.Tuple{1, 3})
	if r.Cold() == nil {
		t.Fatal("overlay delete thawed the relation")
	}
	checkIndexes(t, "live after overlay delete", r, content)

	take("gen2", true)
	r.Delete(rel.Tuple{1, 1}) // cold tuple: thaws
	content = without(content, rel.Tuple{1, 1})
	if r.Cold() != nil {
		t.Fatal("cold delete did not thaw")
	}
	checkIndexes(t, "live after thaw", r, content)
	r.Insert(rel.Tuple{4, 4})
	content = append(content, rel.Tuple{4, 4})
	checkIndexes(t, "live after post-thaw insert", r, content)

	for _, g := range gens {
		if g.snap.Len() != len(g.rows) {
			t.Fatalf("%s: Len = %d, want %d", g.name, g.snap.Len(), len(g.rows))
		}
		checkIndexes(t, g.name, g.snap, g.rows)
	}
}

// TestSnapshotMisuseInsertLeavesSharedIndex: snapshots are immutable by
// contract, but an Insert through one must still not reach the index it
// shares with the live handle — the write starts the snapshot's own
// generation, exactly as a write through the live handle would.
func TestSnapshotMisuseInsertLeavesSharedIndex(t *testing.T) {
	r := rel.FromTuples(2, []rel.Tuple{{1, 10}, {2, 20}})
	snap := r.Snapshot()
	shared := r.Index([]int{0})
	if snap.Index([]int{0}) != shared {
		t.Fatal("snapshot does not share the generation's index")
	}
	if !snap.Insert(rel.Tuple{1, 11}) {
		t.Fatal("insert on snapshot failed")
	}
	if r.Index([]int{0}) != shared {
		t.Fatal("snapshot write replaced the live handle's index")
	}
	if got := shared.Lookup([]rel.Value{1}); len(got) != 1 || r.Len() != 2 {
		t.Fatalf("snapshot write reached the live handle: lookup %v, Len %d", got, r.Len())
	}
	if got := snap.Index([]int{0}).Lookup([]rel.Value{1}); len(got) != 2 {
		t.Fatalf("snapshot's own index sees %d rows for key 1, want 2", len(got))
	}
}

// TestSnapshotConcurrentIndexBuildOnce: readers racing Index(cols) on
// separate snapshots of one generation build it once and all receive the
// same pointer, while the live handle's concurrent writes move it to a
// generation of its own. Run under -race.
func TestSnapshotConcurrentIndexBuildOnce(t *testing.T) {
	r := rel.New(2)
	for v := rel.Value(0); v < 200; v++ {
		r.Insert(rel.Tuple{v % 16, v})
	}
	const readers = 8
	snaps := make([]*rel.Relation, readers)
	for i := range snaps {
		snaps[i] = r.Snapshot() // serialized with the writer, as the engine does
	}
	got := make([][]*rel.Index, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range snaps {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, cols := range indexCols {
				idx := s.Index(cols)
				if n := len(idx.Lookup([]rel.Value{3, 3}[:len(cols)])); n == 0 {
					t.Errorf("reader %d: empty lookup on %v", i, cols)
				}
				got[i] = append(got[i], idx)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for v := rel.Value(200); v < 300; v++ {
			r.Insert(rel.Tuple{v % 16, v})
			r.Index([]int{0})
		}
	}()
	close(start)
	wg.Wait()
	for c := range indexCols {
		for i := 1; i < readers; i++ {
			if got[i][c] != got[0][c] {
				t.Fatalf("cols %v: reader %d got a different index than reader 0", indexCols[c], i)
			}
		}
	}
	if r.Index(indexCols[0]) == got[0][0] {
		t.Fatal("live handle kept the old generation's index after writing")
	}
	if n := len(got[0][0].Lookup([]rel.Value{3})); n != 13 {
		t.Fatalf("old generation's index sees %d rows for key 3, want 13", n)
	}
}
