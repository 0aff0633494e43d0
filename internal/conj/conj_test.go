package conj

import (
	"sort"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/rel"
)

func testDB(t *testing.T) *database.Database {
	t.Helper()
	db := database.New()
	for _, f := range [][3]string{
		{"friend", "tom", "dick"},
		{"friend", "dick", "harry"},
		{"friend", "harry", "sue"},
		{"idol", "tom", "harry"},
	} {
		if _, err := db.AddFact(f[0], f[1], f[2]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func collect(t *testing.T, db *database.Database, plan *Plan, in []rel.Value, outVars []string) []string {
	t.Helper()
	slots := make([]int, len(outVars))
	for i, v := range outVars {
		s, ok := plan.Slot(v)
		if !ok {
			t.Fatalf("no slot for %s", v)
		}
		slots[i] = s
	}
	var rows []string
	for _, b := range pull(plan.Stream(DBSource(db.Relation), in)) {
		row := ""
		for _, s := range slots {
			row += db.Syms.Name(b[s]) + " "
		}
		rows = append(rows, row)
	}
	sort.Strings(rows)
	return rows
}

func TestSingleAtomScan(t *testing.T) {
	db := testDB(t)
	plan, err := Compile([]ast.Atom{ast.A("friend", ast.V("X"), ast.V("Y"))}, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, db, plan, nil, []string{"X", "Y"})
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestBoundVariableProbe(t *testing.T) {
	db := testDB(t)
	plan, err := Compile([]ast.Atom{ast.A("friend", ast.V("X"), ast.V("Y"))}, []string{"X"}, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	tom, _ := db.Syms.Lookup("tom")
	rows := collect(t, db, plan, []rel.Value{tom}, []string{"Y"})
	if len(rows) != 1 || rows[0] != "dick " {
		t.Fatalf("rows = %v", rows)
	}
}

func TestConstantInAtom(t *testing.T) {
	db := testDB(t)
	plan, err := Compile([]ast.Atom{ast.A("friend", ast.C("dick"), ast.V("Y"))}, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, db, plan, nil, []string{"Y"})
	if len(rows) != 1 || rows[0] != "harry " {
		t.Fatalf("rows = %v", rows)
	}
}

func TestTwoAtomJoin(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{
		ast.A("friend", ast.V("X"), ast.V("W")),
		ast.A("friend", ast.V("W"), ast.V("Y")),
	}
	plan, err := Compile(atoms, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, db, plan, nil, []string{"X", "Y"})
	want := []string{"dick sue ", "tom harry "}
	if len(rows) != 2 || rows[0] != want[0] || rows[1] != want[1] {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

func TestRepeatedVarWithinAtom(t *testing.T) {
	db := database.New()
	db.AddFact("e", "a", "a")
	db.AddFact("e", "a", "b")
	plan, err := Compile([]ast.Atom{ast.A("e", ast.V("X"), ast.V("X"))}, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, db, plan, nil, []string{"X"})
	if len(rows) != 1 || rows[0] != "a " {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRepeatedVarAcrossAtoms(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{
		ast.A("friend", ast.V("X"), ast.V("W")),
		ast.A("idol", ast.V("X"), ast.V("W2")),
	}
	plan, err := Compile(atoms, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, db, plan, nil, []string{"X", "W", "W2"})
	if len(rows) != 1 || rows[0] != "tom dick harry " {
		t.Fatalf("rows = %v", rows)
	}
}

func TestGreedyReorderUsesBoundAtomFirst(t *testing.T) {
	db := testDB(t)
	// idol(X, W2) has no bound args initially; friend(tom, W) has a
	// constant so should run first regardless of order.
	atoms := []ast.Atom{
		ast.A("idol", ast.V("X"), ast.V("W2")),
		ast.A("friend", ast.C("tom"), ast.V("X")),
	}
	plan, err := Compile(atoms, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	order := plan.AtomOrder()
	if order[0] != 1 {
		t.Fatalf("AtomOrder = %v, want friend atom (1) first", order)
	}
}

func TestRelSourceOverride(t *testing.T) {
	db := testDB(t)
	// Substitute a delta relation for atom 0 only.
	delta := rel.New(2)
	tom, _ := db.Syms.Lookup("tom")
	dick, _ := db.Syms.Lookup("dick")
	delta.Insert(rel.Tuple{tom, dick})
	atoms := []ast.Atom{
		ast.A("friend", ast.V("X"), ast.V("W")),
		ast.A("friend", ast.V("W"), ast.V("Y")),
	}
	plan, err := Compile(atoms, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	src := func(atomIdx int, pred string) *rel.Relation {
		if atomIdx == 0 {
			return delta
		}
		return db.Relation(pred)
	}
	if n := count(plan.Stream(src, nil)); n != 1 {
		t.Fatalf("override join produced %d rows, want 1", n)
	}
}

func TestNilRelationIsEmpty(t *testing.T) {
	db := database.New()
	plan, err := Compile([]ast.Atom{ast.A("missing", ast.V("X"))}, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	if n := count(plan.Stream(DBSource(db.Relation), nil)); n != 0 {
		t.Fatalf("missing relation produced %d rows", n)
	}
}

func TestEmptyConjunctionEmitsOnce(t *testing.T) {
	db := database.New()
	plan, err := Compile(nil, []string{"X"}, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	rows := pull(plan.Stream(DBSource(db.Relation), []rel.Value{5}))
	if len(rows) != 1 {
		t.Fatalf("emitted %d times, want 1", len(rows))
	}
	if rows[0][0] != 5 {
		t.Errorf("binding = %v", rows[0])
	}
}

func TestDuplicateBoundVarRejected(t *testing.T) {
	db := database.New()
	if _, err := Compile(nil, []string{"X", "X"}, db.Syms.Intern); err == nil {
		t.Fatal("duplicate bound variable accepted")
	}
}

func TestProjector(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{ast.A("friend", ast.V("X"), ast.V("Y"))}
	plan, err := Compile(atoms, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	head := ast.A("knows", ast.V("Y"), ast.C("yes"), ast.V("X"))
	proj, err := NewProjector(head, plan, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	out := rel.New(3)
	row := make(rel.Tuple, 3)
	st := plan.Stream(DBSource(db.Relation), nil)
	for b, ok := st.Next(); ok; b, ok = st.Next() {
		out.Insert(proj.Tuple(b, row))
	}
	if out.Len() != 3 {
		t.Fatalf("projected %d rows", out.Len())
	}
	tom, _ := db.Syms.Lookup("tom")
	dick, _ := db.Syms.Lookup("dick")
	yes, _ := db.Syms.Lookup("yes")
	if !out.Contains(rel.Tuple{dick, yes, tom}) {
		t.Fatalf("projection missing expected tuple; got %s", out.Dump(db.Syms))
	}
}

func TestProjectorRejectsUnknownVar(t *testing.T) {
	db := database.New()
	plan, err := Compile([]ast.Atom{ast.A("e", ast.V("X"))}, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProjector(ast.A("h", ast.V("Z")), plan, db.Syms.Intern); err == nil {
		t.Fatal("unknown head variable accepted")
	}
}

func TestNoIndexAblationSameResults(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{
		ast.A("friend", ast.V("X"), ast.V("W")),
		ast.A("friend", ast.V("W"), ast.V("Y")),
	}
	indexed, err := Compile(atoms, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := CompileWith(atoms, nil, db.Syms.Intern, CompileOptions{NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(p *Plan) int { return count(p.Stream(DBSource(db.Relation), nil)) }
	if a, b := rows(indexed), rows(scanned); a != b {
		t.Fatalf("indexed %d rows, scanned %d", a, b)
	}
}

func TestNoReorderAblationKeepsTextualOrder(t *testing.T) {
	db := testDB(t)
	atoms := []ast.Atom{
		ast.A("idol", ast.V("X"), ast.V("W2")),
		ast.A("friend", ast.C("tom"), ast.V("X")),
	}
	plan, err := CompileWith(atoms, nil, db.Syms.Intern, CompileOptions{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	order := plan.AtomOrder()
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("AtomOrder = %v, want textual order", order)
	}
	// Same (empty) result as the reordered plan: idol(tom, harry) binds
	// X=tom, and friend(tom, tom) does not exist.
	n := count(plan.Stream(DBSource(db.Relation), nil))
	reordered, err := Compile(atoms, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	if m := count(reordered.Stream(DBSource(db.Relation), nil)); n != m {
		t.Fatalf("rows = %d with NoReorder, %d reordered", n, m)
	}
}
