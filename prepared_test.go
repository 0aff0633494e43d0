package sepdl

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sepdl/internal/parser"
)

// queryConsts extracts the constants of a query string in argument order —
// the parameters a Prepared for that form takes.
func queryConsts(t *testing.T, query string) []string {
	t.Helper()
	q, err := parser.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, a := range q.Args {
		if !a.IsVar() {
			out = append(out, a.Name)
		}
	}
	return out
}

const multiClassProgram = `
t(X, Y) :- e1(X, W) & t(W, Y).
t(X, Y) :- e2(Y, W) & t(X, W).
t(X, Y) :- t0(X, Y).
`

const multiClassFacts = `
e1(a1, a2). e1(a2, a3). e1(a3, a4).
e2(b2, b1). e2(b3, b2). e2(b4, b3).
t0(a4, b1).
`

func TestStatsCacheCounters(t *testing.T) {
	e := load(t, New(), multiClassProgram, multiClassFacts)
	cold, err := e.Query("t(a1, Y)?", WithStrategy(Separable))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.PlanCacheHit {
		t.Error("first query reported a plan-cache hit")
	}
	if cold.Stats.ClosureCacheMisses == 0 {
		t.Errorf("cold query reported no closure-cache misses: %+v", cold.Stats)
	}
	if cold.Stats.BatchSize != 1 {
		t.Errorf("single query BatchSize = %d, want 1", cold.Stats.BatchSize)
	}
	warm, err := e.Query("t(a2, Y)?", WithStrategy(Separable))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.PlanCacheHit {
		t.Error("second query missed the plan cache")
	}
	if warm.Stats.ClosureCacheHits == 0 {
		t.Errorf("warm query had no closure-cache hits: %+v", warm.Stats)
	}
	if cold.String() == "" || warm.String() == "" {
		t.Error("queries returned empty answers")
	}
}

func TestPreparedRunAndBatch(t *testing.T) {
	e := load(t, New(), multiClassProgram, multiClassFacts)
	p, err := e.Prepare("t(a1, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", p.NumParams())
	}
	ctx := context.Background()
	for _, c := range []string{"a1", "a2", "a3", "a4"} {
		res, err := p.Run(ctx, c)
		if err != nil {
			t.Fatalf("Run(%s): %v", c, err)
		}
		ref, err := e.Query(fmt.Sprintf("t(%s, Y)?", c))
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != ref.String() {
			t.Errorf("Run(%s) = %s, want %s", c, res, ref)
		}
	}
	if _, err := p.Run(ctx); err == nil {
		t.Error("Run with 0 constants for a 1-parameter form should fail")
	}
	if _, err := p.Run(ctx, "a1", "a2"); err == nil {
		t.Error("Run with 2 constants for a 1-parameter form should fail")
	}
	results, err := p.RunBatch(ctx, []string{"a1"}, []string{"a3"}, []string{"a1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("RunBatch returned %d results, want 3", len(results))
	}
	for i, c := range []string{"a1", "a3", "a1"} {
		ref, err := e.Query(fmt.Sprintf("t(%s, Y)?", c))
		if err != nil {
			t.Fatal(err)
		}
		if results[i].String() != ref.String() {
			t.Errorf("RunBatch[%d] (%s) = %s, want %s", i, c, results[i], ref)
		}
		if results[i].Stats.BatchSize != 3 {
			t.Errorf("RunBatch[%d] BatchSize = %d, want 3", i, results[i].Stats.BatchSize)
		}
	}
}

// TestBatchCounters pins the engine's accounting: every admitted
// evaluation counts once in Queries, and only QueryBatch and RunBatch
// count in Batches and BatchQueries. Query and Prepared.Run run the batch
// pipeline with a batch of one, which reports BatchSize 1 but is not a
// batch to EngineStats.
func TestBatchCounters(t *testing.T) {
	e := load(t, New(), multiClassProgram, multiClassFacts)
	ctx := context.Background()
	p, err := e.Prepare("t(a1, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	single := func(res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.BatchSize != 1 {
			t.Errorf("single query BatchSize = %d, want 1", res.Stats.BatchSize)
		}
	}
	batch := func(res []*Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	single(e.Query("t(a2, Y)?"))
	single(e.Query("e1(a1, Y)?")) // EDB: answered from the base relations
	single(p.Run(ctx, "a3"))
	batch(e.QueryBatch(ctx, []string{"t(a1, Y)?", "t(a4, Y)?"}))
	batch(e.QueryBatch(ctx, []string{"t(a1, Y)?"}))
	batch(p.RunBatch(ctx, []string{"a1"}, []string{"a2"}, []string{"a1"}))
	if _, err := e.QueryBatch(ctx, []string{"t(a1, Y)?", "t(X, b1)?"}); err == nil {
		t.Fatal("mixed-form batch was accepted")
	}
	st := e.Stats()
	if st.Queries != 6 || st.Batches != 3 || st.BatchQueries != 6 {
		t.Errorf("Queries/Batches/BatchQueries = %d/%d/%d, want 6/3/6", st.Queries, st.Batches, st.BatchQueries)
	}
}

func TestQueryBatchRejectsMixedForms(t *testing.T) {
	e := load(t, New(), multiClassProgram, multiClassFacts)
	ctx := context.Background()
	if _, err := e.QueryBatch(ctx, []string{"t(a1, Y)?", "t(X, b1)?"}); err == nil ||
		!strings.Contains(err.Error(), "mixes query forms") {
		t.Errorf("mixed-form batch error = %v, want 'mixes query forms'", err)
	}
	if res, err := e.QueryBatch(ctx, nil); err != nil || res != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestCacheInvalidation mutates the engine between cached queries in every
// supported way and checks that answers always reflect the current state,
// matching a fresh uncached engine.
func TestCacheInvalidation(t *testing.T) {
	e := load(t, New(), multiClassProgram, multiClassFacts)
	check := func(step, program, facts string) {
		t.Helper()
		for _, q := range []string{"t(a1, Y)?", "t(a2, Y)?"} {
			res, err := e.Query(q, WithStrategy(Separable))
			if err != nil {
				t.Fatalf("%s: %s: %v", step, q, err)
			}
			ref, err := plainEngine(t, program, facts).Query(q, WithStrategy(Separable))
			if err != nil {
				t.Fatalf("%s: %s [uncached]: %v", step, q, err)
			}
			if res.String() != ref.String() {
				t.Errorf("%s: %s = %s, want %s (stale cache?)", step, q, res, ref)
			}
		}
	}
	check("initial", multiClassProgram, multiClassFacts)

	// AddFact extends the non-driver chain: cached closures must refill.
	if err := e.AddFact("e2", "b5", "b4"); err != nil {
		t.Fatal(err)
	}
	facts2 := multiClassFacts + "\ne2(b5, b4)."
	check("after AddFact", multiClassProgram, facts2)

	// Re-adding an existing fact must not change answers (and need not
	// invalidate anything).
	if err := e.AddFact("e2", "b5", "b4"); err != nil {
		t.Fatal(err)
	}
	check("after duplicate AddFact", multiClassProgram, facts2)

	// LoadFacts with new tuples invalidates too.
	if err := e.LoadFacts("e1(a0, a1)."); err != nil {
		t.Fatal(err)
	}
	facts3 := facts2 + "\ne1(a0, a1)."
	check("after LoadFacts", multiClassProgram, facts3)

	// LoadProgram replaces the program: plans and closures for the old
	// revision must not leak into the new one.
	prog2 := multiClassProgram + "\nt(X, Y) :- extra(X, Y).\n"
	if err := e.LoadProgram(prog2); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadFacts("extra(a1, b9)."); err != nil {
		t.Fatal(err)
	}
	facts4 := facts3 + "\nextra(a1, b9)."
	check("after LoadProgram", prog2, facts4)
}

// TestConcurrentWriterCachedReaders races cached readers against a writer
// under the race detector. Each reader's successive answer counts must be
// non-decreasing (facts are only added, and snapshots are monotone), and
// the final warm answers must match a fresh uncached engine.
func TestConcurrentWriterCachedReaders(t *testing.T) {
	e := load(t, New(), multiClassProgram, multiClassFacts)
	const readers, rounds, extra = 4, 20, 10

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for i := 0; i < rounds; i++ {
				res, err := e.Query("t(a1, Y)?", WithStrategy(Separable))
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if res.Len() < last {
					t.Errorf("reader observed answers shrinking: %d then %d", last, res.Len())
					return
				}
				last = res.Len()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < extra; i++ {
			if err := e.AddFact("e2", fmt.Sprintf("c%d", i+1), "b4"); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	finalFacts := multiClassFacts
	for i := 0; i < extra; i++ {
		finalFacts += fmt.Sprintf("\ne2(c%d, b4).", i+1)
	}
	res, err := e.Query("t(a1, Y)?", WithStrategy(Separable))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plainEngine(t, multiClassProgram, finalFacts).Query("t(a1, Y)?", WithStrategy(Separable))
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != ref.String() {
		t.Errorf("final cached answer %s, want %s", res, ref)
	}
}

// TestClosureCacheDisabled checks WithClosureCache(-1) really bypasses the
// closure cache while the plan cache still works.
func TestClosureCacheDisabled(t *testing.T) {
	e := load(t, New(WithClosureCache(-1)), multiClassProgram, multiClassFacts)
	for i := 0; i < 2; i++ {
		res, err := e.Query("t(a1, Y)?", WithStrategy(Separable))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ClosureCacheHits != 0 || res.Stats.ClosureCacheMisses != 0 {
			t.Errorf("closure cache disabled but counted: %+v", res.Stats)
		}
		if i == 1 && !res.Stats.PlanCacheHit {
			t.Error("plan cache should still hit with the closure cache off")
		}
	}
}
