package rel

import (
	"sync"
	"testing"
)

// TestConcurrentIndexProbes is the regression test for the latent data race
// on the old shared scratch buffers: two goroutines probing one index (and
// one relation's membership set) used to corrupt each other's keys. Run
// under -race this fails on the old implementation and must stay silent on
// the per-call-buffer one.
func TestConcurrentIndexProbes(t *testing.T) {
	r := New(2)
	for i := 0; i < 512; i++ {
		r.Insert(Tuple{Value(i), Value(i % 7)})
	}
	idx := r.Index([]int{0})

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2000; rep++ {
				v := Value((rep + g*257) % 512)
				rows := idx.Lookup([]Value{v})
				if len(rows) != 1 || rows[0][0] != v {
					t.Errorf("goroutine %d: Lookup(%d) = %v", g, v, rows)
					return
				}
				if !r.Contains(Tuple{v, v % 7}) {
					t.Errorf("goroutine %d: Contains(%d) = false", g, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentLazyIndexBuild races many readers on a cold index: every
// goroutine asks the same snapshot for the same (and for distinct) column
// indexes at once, exercising the copy-on-write index cache.
func TestConcurrentLazyIndexBuild(t *testing.T) {
	r := New(3)
	for i := 0; i < 256; i++ {
		r.Insert(Tuple{Value(i), Value(i / 2), Value(i % 3)})
	}
	snap := r.Snapshot()

	var wg sync.WaitGroup
	cols := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}}
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				c := cols[(g+rep)%len(cols)]
				idx := snap.Index(c)
				vals := make([]Value, len(c))
				for i, col := range c {
					vals[i] = Tuple{Value(7), Value(3), Value(1)}[col]
				}
				if got := idx.Lookup(vals); len(got) == 0 {
					t.Errorf("goroutine %d: empty lookup on cols %v", g, c)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Every goroutine must have received the same built index per column
	// set (one build wins; losers adopt it).
	for _, c := range cols {
		if snap.Index(c) != snap.Index(c) {
			t.Fatalf("index for %v not cached", c)
		}
	}
}

// TestFromRowsCopies checks the bulk constructor: it copies the rows'
// values, drops duplicates, and the result is independent of its source
// and of the caller's row slices, and probes like a normal relation.
func TestFromRowsCopies(t *testing.T) {
	src := New(2)
	src.Insert(Tuple{1, 2})
	src.Insert(Tuple{3, 4})
	rows := []Tuple{src.Row(0), src.Row(1), Tuple{5, 6}}
	rows = append(rows, rows[0]) // duplicate

	v := FromRows(2, rows)
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if &v.Row(0)[0] == &src.Row(0)[0] {
		t.Fatal("FromRows shares its source's storage")
	}
	rows[2][0] = 9
	src.Delete(Tuple{1, 2}) // moves {3, 4} into the source's first row
	src.Insert(Tuple{7, 8})
	if got := v.String(); got != "{(1,2) (3,4) (5,6)}" {
		t.Fatalf("FromRows relation = %s after its sources changed", got)
	}
	if !v.Contains(Tuple{3, 4}) || v.Contains(Tuple{9, 6}) {
		t.Fatal("Contains wrong on FromRows relation")
	}
	if got := v.Index([]int{1}).Lookup([]Value{4}); len(got) != 1 || !got[0].Equal(Tuple{3, 4}) {
		t.Fatalf("Lookup on FromRows relation = %v", got)
	}
}
