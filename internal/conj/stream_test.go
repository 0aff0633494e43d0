package conj

import (
	"errors"
	"strings"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/rel"
)

// pull drains a stream, copying each binding (Next reuses the runner's
// binding array).
func pull(s *Stream) [][]rel.Value {
	var out [][]rel.Value
	for b, ok := s.Next(); ok; b, ok = s.Next() {
		out = append(out, append([]rel.Value(nil), b...))
	}
	return out
}

// count drains a stream and returns how many bindings it yielded.
func count(s *Stream) int {
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	return n
}

func chainPlan(t *testing.T, db *database.Database) *Plan {
	t.Helper()
	plan, err := Compile([]ast.Atom{
		ast.A("friend", ast.V("X"), ast.V("W")),
		ast.A("friend", ast.V("W"), ast.V("Y")),
	}, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestStreamEmptyInputs(t *testing.T) {
	db := database.New()
	// The predicate exists but is empty: the stream must finish without
	// yielding, and stay exhausted on repeated Next calls.
	if _, err := db.AddFact("friend", "a", "b"); err != nil {
		t.Fatal(err)
	}
	empty := rel.New(2)
	plan := chainPlan(t, db)
	src := func(int, string) *rel.Relation { return empty }
	s := plan.Stream(src, nil)
	if b, ok := s.Next(); ok {
		t.Fatalf("empty relation yielded %v", b)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded again")
	}
	// A nil relation behaves the same as an empty one.
	s = plan.Stream(func(int, string) *rel.Relation { return nil }, nil)
	if _, ok := s.Next(); ok {
		t.Fatal("nil relation yielded")
	}
}

func TestStreamSingleTuple(t *testing.T) {
	db := database.New()
	for _, f := range [][3]string{{"friend", "a", "b"}, {"friend", "b", "c"}} {
		if _, err := db.AddFact(f[0], f[1], f[2]); err != nil {
			t.Fatal(err)
		}
	}
	plan := chainPlan(t, db)
	s := plan.Stream(DBSource(db.Relation), nil)
	rows := pull(s)
	// Exactly one satisfying assignment: a -> b -> c.
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded again")
	}
}

// TestStreamOrderAndTicks pins the enumeration contract: bindings come
// depth-first in plan step order, each step's candidates in insertion
// order, and the tick hook fires once per candidate considered, the
// probes that match nothing included.
func TestStreamOrderAndTicks(t *testing.T) {
	db := testDB(t)
	plan, err := Compile([]ast.Atom{
		ast.A("friend", ast.V("X"), ast.V("W")),
		ast.A("friend", ast.V("W"), ast.V("Y")),
	}, nil, db.Syms.Intern)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	plan.SetTick(func() { ticks++ })
	var got []string
	for _, b := range pull(plan.Stream(DBSource(db.Relation), nil)) {
		var names []string
		for _, v := range b {
			names = append(names, db.Syms.Name(v))
		}
		got = append(got, strings.Join(names, " "))
	}
	// Slots X, W, Y. The outer scan considers three friend tuples; the
	// probes on dick, harry and sue consider one, one and none.
	want := []string{"tom dick harry", "dick harry sue"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("bindings %q, want %q", got, want)
	}
	if ticks != 5 {
		t.Fatalf("ticked %d times, want 5", ticks)
	}
}

// TestStreamMidAbort aborts the budget partway through a pull: the panic
// unwinds out of Next through the consumer's loop and Guard converts it
// back to the budget error, exactly as a deadline or injected fault would.
func TestStreamMidAbort(t *testing.T) {
	db := testDB(t)
	plan := chainPlan(t, db)
	full := len(pull(plan.Stream(DBSource(db.Relation), nil)))
	if full == 0 {
		t.Fatal("no rows to abort among")
	}

	boom := errors.New("mid-stream abort")
	ticks := 0
	plan.SetTick(func() {
		ticks++
		if ticks == 2 {
			budget.Abort(boom)
		}
	})
	var rows int
	err := func() (err error) {
		defer budget.Guard(&err)
		s := plan.Stream(DBSource(db.Relation), nil)
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			rows++
		}
		return nil
	}()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the abort cause", err)
	}
	if rows >= full {
		t.Fatalf("abort after 2 candidates still enumerated all %d rows", full)
	}
}

// TestRunnerReuseAcrossRounds drives one runner (one set of cursor and
// key scratch, one lazily built index per relation) through repeated
// streams, as a fixpoint round loop does: each round must see a fresh,
// complete enumeration, including after the source relation grows.
func TestRunnerReuseAcrossRounds(t *testing.T) {
	db := testDB(t)
	plan := chainPlan(t, db)
	run := plan.NewRunner()

	first := pull(run.Stream(DBSource(db.Relation), nil))
	second := pull(run.Stream(DBSource(db.Relation), nil))
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("round 1 got %d rows, round 2 got %d", len(first), len(second))
	}
	for i := range first {
		for j := range first[i] {
			if first[i][j] != second[i][j] {
				t.Fatalf("row %d differs across rounds: %v vs %v", i, first[i], second[i])
			}
		}
	}

	// Grow the relation between rounds; the next stream must see the new
	// tuples (indexes rebuild on mutation, scans snapshot at open).
	if _, err := db.AddFact("friend", "sue", "ann"); err != nil {
		t.Fatal(err)
	}
	third := pull(run.Stream(DBSource(db.Relation), nil))
	if len(third) <= len(first) {
		t.Fatalf("after insert got %d rows, want more than %d", len(third), len(first))
	}

	// Abandoning a stream mid-flight and starting a new one on the same
	// runner must not corrupt the fresh enumeration.
	s := run.Stream(DBSource(db.Relation), nil)
	if _, ok := s.Next(); !ok {
		t.Fatal("no first row")
	}
	fresh := pull(run.Stream(DBSource(db.Relation), nil))
	if len(fresh) != len(third) {
		t.Fatalf("after abandoned stream got %d rows, want %d", len(fresh), len(third))
	}
}
