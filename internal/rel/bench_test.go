package rel

import (
	"fmt"
	"testing"
)

func buildRelation(n int) *Relation {
	r := New(2)
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(i), Value(i + 1)})
	}
	return r
}

func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	r := New(2)
	for i := 0; i < b.N; i++ {
		r.Insert(Tuple{Value(i), Value(i + 1)})
	}
}

func BenchmarkInsertDuplicate(b *testing.B) {
	r := New(2)
	r.Insert(Tuple{1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(Tuple{1, 2})
	}
}

func BenchmarkContains(b *testing.B) {
	r := buildRelation(4096)
	t := Tuple{2048, 2049}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Contains(t) {
			b.Fatal("missing")
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
// that sits inside every join loop. With the old fmt.Sprintf/strings.Join
// colsKey this allocated on every call; the integer encoding brings it to
// zero allocations (run with -benchmem to see the drop).
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
		fresh := &Relation{arity: r.arity, rows: r.rows, set: r.set, idx: new(idxCache)}
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

func BenchmarkDifference(b *testing.B) {
	r1 := buildRelation(4096)
	r2 := buildRelation(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1.Difference(r2)
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
