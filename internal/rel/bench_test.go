package rel

import (
	"fmt"
	"math/rand"
	"testing"
)

func buildRelation(n int) *Relation {
	r := New(2)
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(i), Value(i + 1)})
	}
	return r
}

// benchRows sizes the row-table microbenchmarks: one op inserts, probes or
// deletes this many tuples, so ns/op divided by it is the per-tuple cost.
const benchRows = 20000

// benchTuples returns n distinct arity-2 tuples in a fixed shuffled order.
func benchTuples(n int) []Tuple {
	out := make([]Tuple, n)
	for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
		out[i] = Tuple{Value(j), Value(j * 7 % 1000)}
	}
	return out
}

// BenchmarkInsert inserts benchRows tuples: fresh ones into an empty
// relation, then the same ones again into a relation that holds them.
func BenchmarkInsert(b *testing.B) {
	ts := benchTuples(benchRows)
	b.Run("distinct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := New(2)
			for _, t := range ts {
				r.Insert(t)
			}
		}
	})
	b.Run("duplicate", func(b *testing.B) {
		r := FromTuples(2, ts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range ts {
				if r.Insert(t) {
					b.Fatal("duplicate inserted")
				}
			}
		}
	})
}

// BenchmarkContains probes benchRows present tuples (hit) and benchRows
// absent ones (miss) against a relation of benchRows tuples.
func BenchmarkContains(b *testing.B) {
	ts := benchTuples(benchRows)
	r := FromTuples(2, ts)
	misses := make([]Tuple, len(ts))
	for i, t := range ts {
		misses[i] = Tuple{t[0], t[1] + 1000}
	}
	for _, c := range []struct {
		name   string
		probes []Tuple
		want   bool
	}{{"hit", ts, true}, {"miss", misses, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, t := range c.probes {
					if r.Contains(t) != c.want {
						b.Fatalf("Contains(%v) != %v", t, c.want)
					}
				}
			}
		})
	}
}

// BenchmarkDelete deletes all benchRows tuples of a relation, in an order
// unrelated to insertion order.
func BenchmarkDelete(b *testing.B) {
	ts := benchTuples(benchRows)
	order := benchTuples(benchRows)
	rand.New(rand.NewSource(2)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := FromTuples(2, ts)
		b.StartTimer()
		for _, t := range order {
			if !r.Delete(t) {
				b.Fatalf("Delete(%v) missed", t)
			}
		}
	}
}

// BenchmarkSnapshotFirstWrite is the first insert through a handle whose
// storage a snapshot shares: the copy-on-write detach of benchRows rows.
func BenchmarkSnapshotFirstWrite(b *testing.B) {
	base := FromTuples(2, benchTuples(benchRows))
	extra := Tuple{-1, -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !base.Snapshot().Insert(extra) {
			b.Fatal("insert after snapshot failed")
		}
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := buildRelation(n)
			idx := r.Index([]int{0})
			key := []Value{Value(n / 2)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(idx.Lookup(key)) != 1 {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

// BenchmarkIndexHit measures the warm path of Relation.Index — the call
// that sits inside every join loop: a scan of the cached indexes'
// column lists, with zero allocations (run with -benchmem).
func BenchmarkIndexHit(b *testing.B) {
	r := buildRelation(1024)
	cols := []int{0, 1}
	r.Index(cols) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Index(cols) == nil {
			b.Fatal("nil index")
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	r := buildRelation(65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rebuild from scratch each iteration on a fresh clone view.
		fresh := &Relation{arity: r.arity, g: &store{vals: r.g.vals, n: r.g.n, set: r.g.set}}
		fresh.Index([]int{1})
	}
}

func BenchmarkJoinChain(b *testing.B) {
	r := buildRelation(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Join(r, []int{1}, []int{0})
	}
}

func BenchmarkProject(b *testing.B) {
	r := buildRelation(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Project([]int{1})
	}
}
