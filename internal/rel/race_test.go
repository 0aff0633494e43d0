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

// TestFromRowsSharesStorage checks the zero-copy constructor: tuples are
// the same backing arrays, duplicates are dropped, and the result behaves
// like a normal relation for probing.
func TestFromRowsSharesStorage(t *testing.T) {
	src := New(2)
	src.Insert(Tuple{1, 2})
	src.Insert(Tuple{3, 4})
	rows := append([]Tuple{}, src.Rows()...)
	rows = append(rows, rows[0]) // duplicate

	v := FromRows(2, rows)
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if &v.Rows()[0][0] != &src.Rows()[0][0] {
		t.Fatal("FromRows cloned tuple storage")
	}
	if !v.Contains(Tuple{3, 4}) || v.Contains(Tuple{9, 9}) {
		t.Fatal("Contains wrong on FromRows relation")
	}
	if got := v.Index([]int{1}).Lookup([]Value{4}); len(got) != 1 {
		t.Fatalf("Lookup on FromRows relation = %v", got)
	}
}
