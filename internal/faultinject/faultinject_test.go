package faultinject

// Table tests driving every evaluation strategy against injected faults:
// a failure or a stall at the Nth probe event must surface as a clean
// error — never a panic, never a goroutine leak, never a mutation of the
// caller's database.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sepdl/internal/aho"
	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/core"
	"sepdl/internal/counting"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/hn"
	"sepdl/internal/leakcheck"
	"sepdl/internal/magic"
	"sepdl/internal/parser"
	"sepdl/internal/tabling"
)

var errInjected = errors.New("injected storage failure")

const chainProg = `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`

func chainDB(t *testing.T, n int) *database.Database {
	t.Helper()
	var sb strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&sb, "friend(a%02d, a%02d).\n", i, i+1)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "perfectFor(a%02d, g%02d).\n", i, i)
	}
	db := database.New()
	fs, err := parser.Facts(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(fs); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustQuery(t *testing.T, s string) ast.Atom {
	t.Helper()
	q, err := parser.Query(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func dumpDB(t *testing.T, db *database.Database) string {
	t.Helper()
	var sb strings.Builder
	if err := db.WriteFacts(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// runner invokes one strategy on the chain workload under bud.
type runner struct {
	name  string
	query string
	run   func(prog *ast.Program, db *database.Database, q ast.Atom, bud *budget.Budget) error
}

var runners = []runner{
	{"separable", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := core.Answer(p, db, q, core.EvalOptions{Budget: b})
		return err
	}},
	{"magic", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := magic.Answer(p, db, q, magic.Options{Budget: b})
		return err
	}},
	{"magic-sup", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := magic.Answer(p, db, q, magic.Options{Budget: b, Supplementary: true})
		return err
	}},
	{"counting", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := counting.Answer(p, db, q, counting.Options{Budget: b})
		return err
	}},
	{"hn", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := hn.Answer(p, db, q, hn.Options{Budget: b})
		return err
	}},
	{"aho", `buys(X, g19)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := aho.Answer(p, db, q, aho.Options{Budget: b})
		return err
	}},
	{"tabling", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := tabling.Answer(p, db, q, tabling.Options{Budget: b})
		return err
	}},
	{"seminaive", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := eval.Run(p, db, eval.Options{Budget: b})
		return err
	}},
	{"naive", `buys(a00, Y)?`, func(p *ast.Program, db *database.Database, q ast.Atom, b *budget.Budget) error {
		_, err := eval.Run(p, db, eval.Options{Budget: b, Naive: true})
		return err
	}},
}

func TestInjectedFailureEveryStrategy(t *testing.T) {
	prog, err := parser.Program(chainProg)
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 20)
	before := dumpDB(t, db)
	leakcheck.Check(t)
	// Event 1 fires before any derivation; event 10 fires mid-evaluation,
	// after state the strategy must not publish has accumulated.
	for _, at := range []int{1, 10} {
		for _, r := range runners {
			t.Run(fmt.Sprintf("%s/at%d", r.name, at), func(t *testing.T) {
				inj := FailAt(at, errInjected)
				bud := budget.NewProbed(context.Background(), budget.Limits{}, inj.Probe())
				err := r.run(prog, db, mustQuery(t, r.query), bud)
				if !errors.Is(err, errInjected) {
					t.Fatalf("err = %v, want errInjected", err)
				}
				if !inj.Triggered() {
					t.Fatal("fault point never reached")
				}
				if got := dumpDB(t, db); got != before {
					t.Error("failed evaluation mutated the caller's database")
				}
				// The strategy must still work on the same inputs afterwards.
				if err := r.run(prog, db, mustQuery(t, r.query), nil); err != nil {
					t.Fatalf("rerun after fault: %v", err)
				}
			})
		}
	}
}

func TestInjectedStallEveryStrategy(t *testing.T) {
	prog, err := parser.Program(chainProg)
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 20)
	before := dumpDB(t, db)
	leakcheck.Check(t)
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			// The stall outlives the deadline, so the poll right after the
			// stalled event must cut the evaluation off.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			inj := StallAt(3, 30*time.Millisecond)
			bud := budget.NewProbed(ctx, budget.Limits{}, inj.Probe())
			start := time.Now()
			err := r.run(prog, db, mustQuery(t, r.query), bud)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			var re *budget.ResourceError
			if !errors.As(err, &re) || re.Limit != budget.LimitDeadline {
				t.Fatalf("err = %#v, want deadline ResourceError", err)
			}
			// One second of slack leaves headroom for the race detector.
			if elapsed > 30*time.Millisecond+time.Second {
				t.Errorf("stalled evaluation took %v to abort", elapsed)
			}
			if got := dumpDB(t, db); got != before {
				t.Error("stalled evaluation mutated the caller's database")
			}
		})
	}
}

func TestSourceFailureSurfacesThroughGuard(t *testing.T) {
	// A relation lookup dying mid-join unwinds through the enclosing
	// Guard exactly like a budget violation.
	db := chainDB(t, 5)
	src := Source(conj.DBSource(db.Relation), "friend", 2, errInjected)
	err := func() (err error) {
		defer budget.Guard(&err)
		for i := 0; i < 3; i++ {
			src(0, "friend")
		}
		return nil
	}()
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want errInjected", err)
	}
	// Lookups before the fault point pass through to the real relation.
	src2 := Source(conj.DBSource(db.Relation), "friend", 99, errInjected)
	if got := src2(0, "friend"); got == nil || got.Len() != db.Relation("friend").Len() {
		t.Fatal("wrapped source did not pass through before the fault point")
	}
}

func TestViewFaultSemantics(t *testing.T) {
	prog, err := parser.Program(chainProg)
	if err != nil {
		t.Fatal(err)
	}
	db := chainDB(t, 10)

	// An armed probe injects failures only after the initial build, into
	// incremental maintenance.
	armed := false
	bud := budget.NewProbed(context.Background(), budget.Limits{}, func() error {
		if armed {
			return errInjected
		}
		return nil
	})
	m, err := eval.MaterializeBudget(prog, db, nil, bud)
	if err != nil {
		t.Fatal(err)
	}

	// DRed's marking phase mutates nothing, so a fault there leaves the
	// view consistent and usable.
	armed = true
	if _, err := m.DeleteFact("friend", "a00", "a01"); !errors.Is(err, errInjected) {
		t.Fatalf("DeleteFact err = %v, want errInjected", err)
	}
	if err := m.Broken(); err != nil {
		t.Fatalf("view broken after clean marking abort: %v", err)
	}
	armed = false
	ans, err := m.Answer(mustQuery(t, `buys(a00, Y)?`))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 10 {
		t.Fatalf("answers after clean abort = %d, want 10", ans.Len())
	}

	// A fault while AddFact propagates leaves the view half-updated, so it
	// must be poisoned: every later operation fails with the fault.
	armed = true
	if _, err := m.AddFact("friend", "zz", "a00"); !errors.Is(err, errInjected) {
		t.Fatalf("AddFact err = %v, want errInjected", err)
	}
	if err := m.Broken(); !errors.Is(err, errInjected) {
		t.Fatalf("Broken() = %v, want errInjected", err)
	}
	armed = false
	if _, err := m.Answer(mustQuery(t, `buys(a00, Y)?`)); !errors.Is(err, errInjected) {
		t.Fatalf("Answer on broken view = %v, want errInjected", err)
	}
	if _, err := m.AddFact("friend", "yy", "a00"); !errors.Is(err, errInjected) {
		t.Fatalf("AddFact on broken view = %v, want errInjected", err)
	}
	if _, err := m.DeleteFact("friend", "a00", "a01"); !errors.Is(err, errInjected) {
		t.Fatalf("DeleteFact on broken view = %v, want errInjected", err)
	}

	// With the probe disarmed (the transient fault cleared), an explicit
	// Repair rebuilds the derived relations from the base relations. The
	// interrupted AddFact's base insertion survived, so the healed view
	// answers as if the propagation had completed: zz reaches all 10 goals.
	if err := m.Repair(); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := m.Broken(); err != nil {
		t.Fatalf("Broken() after repair = %v, want nil", err)
	}
	ans, err = m.Answer(mustQuery(t, `buys(zz, Y)?`))
	if err != nil {
		t.Fatalf("Answer after repair: %v", err)
	}
	if ans.Len() != 10 {
		t.Fatalf("answers for zz after repair = %d, want 10", ans.Len())
	}
	// Maintenance works again after the repair.
	if _, err := m.DeleteFact("friend", "a00", "a01"); err != nil {
		t.Fatalf("DeleteFact after repair: %v", err)
	}
	ans, err = m.Answer(mustQuery(t, `buys(zz, Y)?`))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("answers for zz after cutting the chain = %d, want 1", ans.Len())
	}
}
