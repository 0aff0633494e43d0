package eval

// Concurrent evaluation: a server runs many fixpoints at once over one
// database snapshot, whose EDB relations build their indexes lazily on
// first probe. Each test here starts several Runs at once over one fresh
// database and requires every one to behave like a single sequential Run:
// the same views, the same budget aborts, injected faults and cancellation
// surfacing per run, and the shared database left untouched. Run it under
// -race.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/faultinject"
	"sepdl/internal/par"
)

const concurrentRuns = 4

// runConcurrently starts concurrentRuns Runs of prog over db at once, each
// with its own options from opts, and returns their views and errors.
func runConcurrently(prog *ast.Program, db *database.Database, opts func() Options) ([]*database.Database, []error) {
	views := make([]*database.Database, concurrentRuns)
	errs := make([]error, concurrentRuns)
	par.Run(concurrentRuns, func(w int) {
		views[w], errs[w] = Run(prog, db, opts())
	})
	return views, errs
}

// checkConcurrentMatches runs prog concurrently on a fresh database (so
// the runs race on its cold indexes), then once more sequentially, and
// requires identical views.
func checkConcurrentMatches(t *testing.T, prog *ast.Program, db *database.Database, opts Options) {
	t.Helper()
	views, errs := runConcurrently(prog, db, func() Options { return opts })
	seqView, err := Run(prog, db, opts)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	want := viewDump(t, prog, db, seqView)
	for w := range views {
		if errs[w] != nil {
			t.Fatalf("run %d: %v", w, errs[w])
		}
		if got := viewDump(t, prog, db, views[w]); got != want {
			t.Errorf("run %d view differs from sequential:\nseq:\n%s\nrun:\n%s", w, want, got)
		}
	}
}

func checkCorpusConcurrent(t *testing.T, opts Options) {
	for _, tc := range equivPrograms {
		t.Run(tc.name, func(t *testing.T) {
			db := database.New()
			mustLoad(t, db, tc.facts)
			checkConcurrentMatches(t, mustProgram(t, tc.prog), db, opts)
		})
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	checkCorpusConcurrent(t, Options{})
}

func TestParallelMatchesSequentialNaive(t *testing.T) {
	checkCorpusConcurrent(t, Options{Naive: true})
}

func TestParallelMatchesSequentialRandomGraph(t *testing.T) {
	prog := mustProgram(t, `
path(X, Y) :- e(X, W) & path(W, Y).
path(X, Y) :- e(X, Y).
`)
	db := database.New()
	datagen.RandomGraph(db, "e", "v", 80, 160, 7)
	checkConcurrentMatches(t, prog, db, Options{})
}

// bigTCSetup returns a workload large enough that budget aborts and faults
// fire mid-fixpoint rather than in the first round.
func bigTCSetup(t *testing.T) (*ast.Program, *database.Database) {
	t.Helper()
	prog := mustProgram(t, `
path(X, Y) :- e(X, W) & path(W, Y).
path(X, Y) :- e(X, Y).
`)
	db := database.New()
	datagen.RandomGraph(db, "e", "v", 120, 240, 11)
	return prog, db
}

func TestParallelBudgetAbortMatchesSequential(t *testing.T) {
	prog, db := bigTCSetup(t)
	for _, limits := range []budget.Limits{
		{MaxTuples: 10},
		{MaxRounds: 2},
		{MaxBytes: 64},
	} {
		t.Run(fmt.Sprintf("%+v", limits), func(t *testing.T) {
			_, errs := runConcurrently(prog, db, func() Options {
				return Options{Budget: budget.New(context.Background(), limits)}
			})
			_, seqErr := Run(prog, db, Options{Budget: budget.New(context.Background(), limits)})
			var seqRE *budget.ResourceError
			if !errors.As(seqErr, &seqRE) {
				t.Fatalf("sequential err = %v, want *ResourceError", seqErr)
			}
			for w, err := range errs {
				var re *budget.ResourceError
				if !errors.As(err, &re) {
					t.Fatalf("run %d err = %v, want *ResourceError", w, err)
				}
				if re.Limit != seqRE.Limit {
					t.Errorf("run %d limit %s, sequential %s", w, re.Limit, seqRE.Limit)
				}
			}
		})
	}
}

func TestParallelFaultInjectionSurfacesCleanly(t *testing.T) {
	prog, db := bigTCSetup(t)
	boom := errors.New("injected storage fault")
	// Fire on several different ticks so the fault lands in different
	// phases of a run (first probe, mid-round, late round).
	for _, at := range []int{1, 10, 500} {
		t.Run(fmt.Sprintf("at-%d", at), func(t *testing.T) {
			before := db.NumTuples()
			_, errs := runConcurrently(prog, db, func() Options {
				inj := faultinject.FailAt(at, boom)
				return Options{Budget: budget.NewProbed(context.Background(), budget.Limits{}, inj.Probe())}
			})
			for w, err := range errs {
				if !errors.Is(err, boom) {
					t.Errorf("run %d err = %v, want injected fault", w, err)
				}
			}
			if db.NumTuples() != before {
				t.Errorf("database mutated by aborted runs: %d -> %d tuples", before, db.NumTuples())
			}
		})
	}
}

func TestParallelCancellationMidRun(t *testing.T) {
	prog, db := bigTCSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, errs := runConcurrently(prog, db, func() Options {
		return Options{Budget: budget.New(ctx, budget.Limits{})}
	})
	// Each run either finished before the cancel landed (tiny machines) or
	// must surface the cancellation as a budget abort.
	for w, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("run %d err = %v, want context.Canceled (or nil if the run won the race)", w, err)
		}
	}
}
