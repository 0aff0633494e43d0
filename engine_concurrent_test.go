package sepdl

// Tests for the engine's concurrent-serving behavior: snapshot-isolated
// queries racing writers, admission control, strategy fallback, and
// self-healing views. The stress tests are tier-1 (they run under the
// -race gate of `make verify`); `make stress` additionally repeats them.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sepdl/internal/leakcheck"
)

// mustPrefix fails the test unless every row is a single goal g%02d and
// the rows form the contiguous prefix g00..g<m>: the snapshot invariant.
// A torn read (a goal visible while an earlier one is missing) breaks
// contiguity. It reports rather than aborts so reader goroutines can use
// it; callers should stop on false.
func mustPrefix(t *testing.T, rows [][]string, atLeast int) bool {
	t.Helper()
	if len(rows) < atLeast {
		t.Errorf("answers = %d rows, want at least %d", len(rows), atLeast)
		return false
	}
	for i, row := range rows {
		if len(row) != 1 || row[0] != fmt.Sprintf("g%02d", i) {
			t.Errorf("row %d = %v, want [g%02d]: answer set is not a contiguous prefix", i, row, i)
			return false
		}
	}
	return true
}

func TestConcurrentReadersWritersSnapshotIsolation(t *testing.T) {
	leakcheck.Check(t)
	const (
		initial = 10
		grow    = 50
		readers = 8
	)
	e := chainEngine(t, initial)

	var wg sync.WaitGroup  // writer 1 + readers
	var wg2 sync.WaitGroup // writer 2 (runs until the others finish)
	stop := make(chan struct{})

	// Writer 1 extends the chain: friend(a_k, a_{k+1}) then
	// perfectFor(a_{k+1}, g_{k+1}). Every reader snapshot sees a prefix of
	// this growth, so its answer set is always a contiguous prefix of goals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := initial - 1; k < initial-1+grow; k++ {
			if err := e.AddFact("friend", fmt.Sprintf("a%02d", k), fmt.Sprintf("a%02d", k+1)); err != nil {
				t.Error(err)
				return
			}
			if err := e.AddFact("perfectFor", fmt.Sprintf("a%02d", k+1), fmt.Sprintf("g%02d", k+1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Writer 2 churns an unrelated relation (including creating it, so
	// snapshots race relation-map growth too) and runs Materialize loops,
	// which snapshot the whole database mid-write.
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.AddFact("noise", fmt.Sprintf("w%03d", i), fmt.Sprintf("w%03d", i+1)); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 0 {
				v, err := e.Materialize()
				if err != nil {
					t.Error(err)
					return
				}
				res, err := v.Query(`buys(a00, Y)?`)
				if err != nil {
					t.Error(err)
					return
				}
				if !mustPrefix(t, res.Rows(), initial) {
					return
				}
			}
		}
	}()

	// Readers hammer the engine across strategies; every answer set must be
	// a contiguous prefix at least as long as the initial chain.
	strategies := []Strategy{Auto, Separable, MagicSets, MagicSetsSup, SemiNaive}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				s := strategies[(r+iter)%len(strategies)]
				res, err := e.QueryCtx(context.Background(), `buys(a00, Y)?`, WithStrategy(s))
				if err != nil {
					t.Errorf("reader %d (%s): %v", r, s, err)
					return
				}
				if !mustPrefix(t, res.Rows(), initial) {
					return
				}
			}
		}()
	}

	wg.Wait()   // writer 1 + readers done
	close(stop) // stop writer 2
	wg2.Wait()

	// After all writers quiesce the chain is complete.
	res, err := e.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != initial+grow {
		t.Fatalf("final answers = %d, want %d", res.Len(), initial+grow)
	}
	mustPrefix(t, res.Rows(), initial+grow)
}

func TestConcurrentViewReadersWriters(t *testing.T) {
	leakcheck.Check(t)
	e := chainEngine(t, 10)
	v, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Two writers alternately add and remove disjoint chain extensions
	// through the view; eight readers assert the prefix invariant on every
	// snapshot they query.
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := fmt.Sprintf("a%02d", 9)
			node := fmt.Sprintf("ext%d", w)
			goal := fmt.Sprintf("h%d", w)
			for i := 0; i < 25; i++ {
				if _, err := v.AddFact("friend", from, node); err != nil {
					t.Error(err)
					return
				}
				if _, err := v.DeleteFact("friend", from, node); err != nil {
					t.Error(err)
					return
				}
				_ = goal
			}
		}()
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := v.Query(`buys(a00, Y)?`)
				if err != nil {
					t.Error(err)
					return
				}
				// The writers only toggle dead-end extensions, so the goal
				// set is always exactly g00..g09.
				if !mustPrefix(t, res.Rows(), 10) {
					return
				}
				if res.Len() != 10 {
					t.Errorf("answers = %d, want 10", res.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// blockEval installs a testHookEval that parks every admitted query until
// release is closed, reporting each arrival on entered.
func blockEval(t *testing.T, capacity int) (entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, capacity)
	release = make(chan struct{})
	testHookEval = func() {
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testHookEval = nil })
	return entered, release
}

func TestConcurrentAdmissionImmediateReject(t *testing.T) {
	leakcheck.Check(t)
	e2 := chainEngineOpts(t, 5, WithMaxConcurrent(2))

	entered, release := blockEval(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e2.Query(`buys(a00, Y)?`); err != nil {
				t.Error(err)
			}
		}()
	}
	<-entered
	<-entered // both slots held mid-evaluation

	// No admission wait, no deadline: the third query is shed immediately.
	_, err := e2.Query(`buys(a00, Y)?`)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.MaxConcurrent != 2 {
		t.Fatalf("err = %#v, want OverloadError{MaxConcurrent: 2}", err)
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("error text %q does not say overloaded", err)
	}

	close(release)
	wg.Wait()

	// Slots freed: queries are admitted again.
	testHookEval = nil
	res, err := e2.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("answers = %d, want 5", res.Len())
	}
}

func TestConcurrentAdmissionDeadlineWhileQueued(t *testing.T) {
	leakcheck.Check(t)
	e := chainEngineOpts(t, 5, WithMaxConcurrent(1))
	entered, release := blockEval(t, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Query(`buys(a00, Y)?`); err != nil {
			t.Error(err)
		}
	}()
	<-entered

	// The queued query's own deadline bounds its wait for a slot.
	start := time.Now()
	_, err := e.Query(`buys(a00, Y)?`, WithDeadline(30*time.Millisecond))
	waited := time.Since(start)
	close(release) // unblock the slot holder before asserting
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded as cause", err)
	}
	if waited < 25*time.Millisecond {
		t.Fatalf("rejected after %v, should have queued for the deadline", waited)
	}
	wg.Wait()
}

func TestConcurrentAdmissionWaitElapsesAndSlotFrees(t *testing.T) {
	leakcheck.Check(t)
	e := chainEngineOpts(t, 5, WithMaxConcurrent(1), WithAdmissionWait(30*time.Millisecond))
	entered, release := blockEval(t, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Query(`buys(a00, Y)?`); err != nil {
			t.Error(err)
		}
	}()
	<-entered

	// The admission wait elapses with the slot still held.
	_, err := e.Query(`buys(a00, Y)?`)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if oe.Waited < 25*time.Millisecond || oe.Cause != nil {
		t.Fatalf("OverloadError = %+v, want Waited >= admission wait and no cause", oe)
	}

	// A queued query gets the slot when it frees within the wait.
	var wg2 sync.WaitGroup
	wg2.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg2.Done()
		// Once release closes the hook passes straight through.
		_, err := e.Query(`buys(a00, Y)?`)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it queue
	close(release)                   // first query finishes, slot frees
	wg.Wait()
	wg2.Wait()
	if err := <-errc; err != nil {
		t.Fatalf("queued query after slot freed: %v", err)
	}
}

func TestConcurrentAdmissionDrainMode(t *testing.T) {
	e := chainEngineOpts(t, 5, WithMaxConcurrent(-1))
	_, err := e.Query(`buys(a00, Y)?`)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("error text %q does not mention draining", err)
	}
	// Materialize is admission-gated too.
	if _, err := e.Materialize(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Materialize err = %v, want ErrOverloaded", err)
	}
}

// chainEngineOpts is chainEngine with engine options.
func chainEngineOpts(t *testing.T, n int, opts ...EngineOption) *Engine {
	t.Helper()
	e := New(opts...)
	if err := e.LoadProgram(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&sb, "friend(a%02d, a%02d).\n", i, i+1)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "perfectFor(a%02d, g%02d).\n", i, i)
	}
	if err := e.LoadFacts(sb.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFallbackMagicToSemiNaive(t *testing.T) {
	// Self-calibrating: semi-naive's unbudgeted insertion count is the
	// budget. Magic inserts strictly more on this query (the full closure
	// plus the magic and supplementary relations), so it trips; semi-naive
	// fits exactly (the check is consumed > max).
	e := chainEngine(t, 60)
	base, err := e.Query(`buys(a00, Y)?`, WithStrategy(SemiNaive))
	if err != nil {
		t.Fatal(err)
	}
	maxT := base.Stats.Inserted

	// Sanity: without fallback the budget does trip magic.
	_, err = e.Query(`buys(a00, Y)?`, WithStrategy(MagicSets), WithBudget(Budget{MaxTuples: maxT}))
	var re *ResourceError
	if !errors.As(err, &re) || re.Limit != LimitTuples {
		t.Fatalf("magic without fallback: err = %v, want tuples ResourceError", err)
	}

	res, err := e.Query(`buys(a00, Y)?`,
		WithStrategy(MagicSets), WithBudget(Budget{MaxTuples: maxT}), WithFallback())
	if err != nil {
		t.Fatalf("with fallback: %v", err)
	}
	if res.Len() != 60 {
		t.Fatalf("answers = %d, want 60", res.Len())
	}
	if res.Stats.Strategy != SemiNaive || res.Stats.FallbackFrom != MagicSets {
		t.Fatalf("Stats = {Strategy: %s, FallbackFrom: %s}, want {seminaive, magic}",
			res.Stats.Strategy, res.Stats.FallbackFrom)
	}
}

func TestFallbackFirstStrategySucceeds(t *testing.T) {
	// When the compiled strategy fits its budget, no fallback happens and
	// FallbackFrom stays empty.
	e := chainEngine(t, 10)
	res, err := e.Query(`buys(a00, Y)?`, WithStrategy(Separable),
		WithBudget(Budget{MaxTuples: 1000}), WithFallback())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != Separable || res.Stats.FallbackFrom != "" {
		t.Fatalf("Stats = {Strategy: %s, FallbackFrom: %q}, want {separable, \"\"}",
			res.Stats.Strategy, res.Stats.FallbackFrom)
	}
}

func TestFallbackSkippedOnDeadline(t *testing.T) {
	// Deadline expiry must not trigger a retry: there is no time left to
	// retry with.
	e := chainEngine(t, 10)
	testHookEval = func() { time.Sleep(40 * time.Millisecond) }
	defer func() { testHookEval = nil }()
	_, err := e.Query(`buys(a00, Y)?`,
		WithStrategy(MagicSets), WithDeadline(10*time.Millisecond), WithFallback())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if strings.Contains(err.Error(), "fallback") {
		t.Fatalf("error %q suggests a fallback ran on deadline expiry", err)
	}
}

func TestFallbackAlsoFails(t *testing.T) {
	// A budget too small for either strategy reports both failures,
	// keeping the original strategy's typed error.
	e := chainEngine(t, 60)
	_, err := e.Query(`buys(a00, Y)?`,
		WithStrategy(MagicSets), WithBudget(Budget{MaxTuples: 10}), WithFallback())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var re *ResourceError
	if !errors.As(err, &re) || re.Strategy != string(MagicSets) {
		t.Fatalf("err = %v, want the original magic ResourceError", err)
	}
	if !strings.Contains(err.Error(), "semi-naive fallback also failed") {
		t.Fatalf("error %q does not report the failed fallback", err)
	}
}

func TestFallbackNotOnSemiNaive(t *testing.T) {
	// SemiNaive does not fall back to itself; the budget error surfaces.
	e := chainEngine(t, 60)
	_, err := e.Query(`buys(a00, Y)?`,
		WithStrategy(SemiNaive), WithBudget(Budget{MaxTuples: 10}), WithFallback())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if strings.Contains(err.Error(), "fallback") {
		t.Fatalf("error %q suggests seminaive fell back", err)
	}
}

// doubledChainEngine builds a graph with two disjoint paths between each
// pair of consecutive hubs (a_i → {x_i, y_i} → a_{i+1}), so deleting one
// edge triggers a DRed over-delete/re-derive pass whose churn far exceeds
// the net change: every upstream derivation is suspected and must be
// re-derived through the surviving path.
func doubledChainEngine(t *testing.T, hubs int) *Engine {
	t.Helper()
	e := New()
	if err := e.LoadProgram(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i+1 < hubs; i++ {
		fmt.Fprintf(&sb, "friend(a%02d, x%02d).\n", i, i)
		fmt.Fprintf(&sb, "friend(x%02d, a%02d).\n", i, i+1)
		fmt.Fprintf(&sb, "friend(a%02d, y%02d).\n", i, i)
		fmt.Fprintf(&sb, "friend(y%02d, a%02d).\n", i, i+1)
	}
	fmt.Fprintf(&sb, "perfectFor(a%02d, g).\n", hubs-1)
	if err := e.LoadFacts(sb.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestViewSelfHealsAfterBudgetAbort(t *testing.T) {
	e := doubledChainEngine(t, 6) // nodes a00..a05, x00..x04, y00..y04: 16 buyers of g
	// Calibrate the cumulative budget: the initial build fits, the DRed
	// re-derivation churn on top of it does not, but after a reset a full
	// rebuild fits again. The build inserts one buys tuple per node (16);
	// deleting friend(a04, x04) suspects nearly every derivation upstream
	// of a04 and re-derives it through the y04 path (~12 insertions).
	v, err := e.MaterializeCtx(context.Background(), WithBudget(Budget{MaxTuples: 20}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "{(g)}" {
		t.Fatalf("before delete: %s, want {(g)}", res)
	}

	// The deletion's DRed pass trips the cumulative budget mid-rederivation.
	_, err = v.DeleteFact("friend", "a04", "x04")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DeleteFact err = %v, want ErrBudgetExceeded (calibration off?)", err)
	}
	if v.Broken() == nil {
		t.Fatal("view not marked broken after mid-mutation abort")
	}

	// Next access self-heals: the budget resets and the view rebuilds from
	// the base relations, which already include the deletion. Every node
	// still reaches g through the surviving y-path.
	res, err = v.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatalf("query after self-heal: %v", err)
	}
	if res.String() != "{(g)}" {
		t.Fatalf("after self-heal: %s, want {(g)}", res)
	}
	if err := v.Broken(); err != nil {
		t.Fatalf("Broken() after self-heal = %v, want nil", err)
	}
	if v.Repairs() != 1 {
		t.Fatalf("Repairs() = %d, want 1", v.Repairs())
	}
	// The interrupted deletion's base-level change survived the heal: only
	// the y04 edge remains out of a04.
	res, err = v.Query(`friend(a04, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "{(y04)}" {
		t.Fatalf("friend(a04, Y) after heal = %s, want {(y04)}", res)
	}
	// Maintenance works again after the heal (within the reset budget).
	if _, err := v.DeleteFact("perfectFor", "a05", "g"); err == nil {
		// Deleting the only goal empties the view; depending on churn this
		// may or may not trip the budget again — both are acceptable here,
		// but an abort must mark it broken for the next self-heal.
	} else if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DeleteFact after heal: %v", err)
	}
}

func TestViewSelfHealsOnMutationAccess(t *testing.T) {
	// A broken view also heals when the next access is a mutation, not a
	// query.
	e := doubledChainEngine(t, 6)
	v, err := e.MaterializeCtx(context.Background(), WithBudget(Budget{MaxTuples: 20}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = v.DeleteFact("friend", "a04", "x04"); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DeleteFact err = %v, want ErrBudgetExceeded", err)
	}
	if v.Broken() == nil {
		t.Fatal("view not broken")
	}
	// AddFact heals first, then applies.
	if _, err := v.AddFact("perfectFor", "a00", "h"); err != nil {
		t.Fatalf("AddFact on broken view did not self-heal: %v", err)
	}
	if v.Repairs() != 1 {
		t.Fatalf("Repairs() = %d, want 1", v.Repairs())
	}
	res, err := v.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("answers = %d, want 2 (g and h)", res.Len())
	}
}

func TestSnapshotResultStableAfterWrite(t *testing.T) {
	// A Result handed out by a query is a stable snapshot: later AddFact
	// calls do not change its rows.
	e := chainEngine(t, 5)
	res, err := e.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("answers = %d, want 5", res.Len())
	}
	if err := e.AddFact("perfectFor", "a00", "extra"); err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("result changed after AddFact: %d rows", res.Len())
	}
	res2, err := e.Query(`buys(a00, Y)?`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 6 {
		t.Fatalf("new query answers = %d, want 6", res2.Len())
	}
}

func TestLoadProgramConcurrentWithQueries(t *testing.T) {
	leakcheck.Check(t)
	// Program swaps race queries: each query keeps the revision it started
	// with, so answers are from either the old or the new program, never a
	// mix, and the analysis cache never poisons across revisions.
	e := chainEngine(t, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := e.Query(`buys(a00, Y)?`)
				if err != nil {
					t.Error(err)
					return
				}
				// 8 goals with the recursive program, 1 with only the base
				// rule, 0 in the window where ClearProgram has run and
				// buys is momentarily a (nonexistent) base predicate.
				if n := res.Len(); n != 8 && n != 1 && n != 0 {
					t.Errorf("answers = %d, want 8, 1, or 0", n)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			e.ClearProgram()
			prog := `buys(X, Y) :- perfectFor(X, Y).`
			if i%2 == 0 {
				prog = `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`
			}
			if err := e.LoadProgram(prog); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
