package conj

import (
	"fmt"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/rel"
)

func chainDB(n int) *database.Database {
	db := database.New()
	for i := 0; i < n; i++ {
		db.AddFact("e", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
	}
	return db
}

func BenchmarkTwoHopJoin(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := chainDB(n)
			atoms := []ast.Atom{
				ast.A("e", ast.V("X"), ast.V("W")),
				ast.A("e", ast.V("W"), ast.V("Y")),
			}
			plan, err := Compile(atoms, nil, db.Syms.Intern)
			if err != nil {
				b.Fatal(err)
			}
			src := DBSource(db.Relation)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cnt := count(plan.Stream(src, nil)); cnt != n-1 {
					b.Fatalf("rows = %d", cnt)
				}
			}
		})
	}
}

func BenchmarkBoundProbe(b *testing.B) {
	db := chainDB(8192)
	atoms := []ast.Atom{ast.A("e", ast.V("X"), ast.V("Y"))}
	plan, err := Compile(atoms, []string{"X"}, db.Syms.Intern)
	if err != nil {
		b.Fatal(err)
	}
	src := DBSource(db.Relation)
	mid, _ := db.Syms.Lookup("v4096")
	in := []rel.Value{mid}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count(plan.Stream(src, in))
	}
}

func BenchmarkTransitionApply(b *testing.B) {
	db := chainDB(8192)
	atoms := []ast.Atom{ast.A("e", ast.V("X"), ast.V("W"))}
	tr, err := NewTransition(atoms, []string{"X"}, []string{"W"}, db.Syms.Intern)
	if err != nil {
		b.Fatal(err)
	}
	src := DBSource(db.Relation)
	mid, _ := db.Syms.Lookup("v4096")
	carry := rel.Tuple{mid}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NewRunner(src).Apply(carry, func(rel.Tuple) {})
	}
}
