package conj

import (
	"fmt"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/rel"
)

func TestTransitionForward(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{ast.A("friend", ast.V("X"), ast.V("W"))}
	tr, err := NewTransition(atoms, []string{"X"}, []string{"W"}, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	tom, _ := db.Syms.Lookup("tom")
	dick, _ := db.Syms.Lookup("dick")
	var got []rel.Value
	tr.NewRunner(DBSource(db.Relation)).Apply(rel.Tuple{tom}, func(out rel.Tuple) {
		got = append(got, out[0])
	})
	if len(got) != 1 || got[0] != dick {
		t.Fatalf("Apply = %v", got)
	}
}

func TestTransitionDuplicateBoundVars(t *testing.T) {
	// Bound variable repeated across carry columns: values must agree.
	db := database.New()
	db.AddFact("e", "a", "b")
	atoms := []ast.Atom{ast.A("e", ast.V("X"), ast.V("Y"))}
	tr, err := NewTransition(atoms, []string{"X", "X"}, []string{"Y"}, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Syms.Lookup("a")
	b, _ := db.Syms.Lookup("b")
	n := 0
	tr.NewRunner(DBSource(db.Relation)).Apply(rel.Tuple{a, a}, func(rel.Tuple) { n++ })
	if n != 1 {
		t.Fatalf("consistent duplicate: %d rows", n)
	}
	n = 0
	tr.NewRunner(DBSource(db.Relation)).Apply(rel.Tuple{a, b}, func(rel.Tuple) { n++ })
	if n != 0 {
		t.Fatalf("inconsistent duplicate produced %d rows", n)
	}
}

func TestTransitionMultiOut(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{
		ast.A("friend", ast.V("X"), ast.V("W")),
		ast.A("friend", ast.V("W"), ast.V("Y")),
	}
	tr, err := NewTransition(atoms, []string{"X"}, []string{"W", "Y"}, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	tom, _ := db.Syms.Lookup("tom")
	var rows [][2]string
	tr.NewRunner(DBSource(db.Relation)).Apply(rel.Tuple{tom}, func(out rel.Tuple) {
		rows = append(rows, [2]string{db.Syms.Name(out[0]), db.Syms.Name(out[1])})
	})
	if len(rows) != 1 || rows[0] != [2]string{"dick", "harry"} {
		t.Fatalf("rows = %v", rows)
	}
}

func TestTransitionBadOutVar(t *testing.T) {
	db := database.New()
	atoms := []ast.Atom{ast.A("e", ast.V("X"))}
	if _, err := NewTransition(atoms, nil, []string{"Missing"}, db.Syms.Intern); err == nil {
		t.Fatal("unknown output variable accepted")
	}
}

func TestPlanIntrospection(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{ast.A("friend", ast.V("X"), ast.V("Y"))}
	plan, err := Compile(atoms, []string{"Z"}, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumVars() != 3 {
		t.Fatalf("NumVars = %d", plan.NumVars())
	}
	vars := plan.Vars()
	if len(vars) != 3 || vars[0] != "Z" {
		t.Fatalf("Vars = %v", vars)
	}
	if _, ok := plan.Slot("X"); !ok {
		t.Fatal("missing slot for X")
	}
	if _, ok := plan.Slot("Q"); ok {
		t.Fatal("found slot for unknown var")
	}
}

// TestTransitionRunnerResolvesOnce pins that a TransitionRunner asks its
// source for each body atom's relation once, when it is built, and never
// per carry tuple or per probe: a carry loop applies the same runner to
// every row of every round.
func TestTransitionRunnerResolvesOnce(t *testing.T) {
	db := database.New()
	for i := range 50 {
		db.AddFact("e", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
	}
	atoms := []ast.Atom{
		ast.A("e", ast.V("X"), ast.V("W")),
		ast.A("e", ast.V("W"), ast.V("Y")),
	}
	tr, err := NewTransition(atoms, []string{"X"}, []string{"Y"}, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	run := tr.NewRunner(func(_ int, pred string) *rel.Relation {
		calls++
		return db.Relation(pred)
	})
	emitted := 0
	for i := range 49 {
		v, _ := db.Syms.Lookup(fmt.Sprintf("v%d", i))
		run.Apply(rel.Tuple{v}, func(rel.Tuple) { emitted++ })
	}
	if emitted != 49 {
		t.Fatalf("emitted %d two-hop rows, want 49", emitted)
	}
	if calls != len(atoms) {
		t.Fatalf("source asked %d times for %d atoms over 49 carry tuples, want once per atom", calls, len(atoms))
	}
}
