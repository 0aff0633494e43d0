package sepdl

import (
	"fmt"
	"testing"

	"sepdl/internal/leakcheck"
	"sepdl/internal/rel"
)

// Indexes belong to a relation's storage generation: every snapshot of an
// unmodified relation shares one lazily built index cache, and the first
// write starts a new generation. These tests interleave writes and queries
// so that every write lands on relations earlier queries indexed, and
// check every answer against an engine built from scratch over the same
// facts, where no index can predate a fact.

// freshEngine builds an in-RAM engine holding program and exactly facts.
func freshEngine(t *testing.T, program string, facts [][]string) *Engine {
	t.Helper()
	e := New()
	if err := e.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestGenerationEquivalenceDurable interleaves AddFact and queries under
// every served strategy on a durable engine whose memtable budget forces
// flushes mid-run, so queries also straddle the rebase onto fresh cold
// relations.
func TestGenerationEquivalenceDurable(t *testing.T) {
	leakcheck.CheckResources(t)
	e, err := Open(t.TempDir(), WithMemtableBytes(1<<10), WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadProgram(coldTCProgram); err != nil {
		t.Fatal(err)
	}
	queries := []string{"path(n000, Y)?", "path(X, n005)?", "edge(X, n003)?", "path(n004, n002)?"}
	facts := coldGraphFacts(48)
	for i, f := range facts {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
		if i == len(facts)/2 {
			// Deterministic flush-and-rebase besides the memtable trigger.
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i%6 == 5 || i == len(facts)-1 {
			assertEnginesAgree(t, fmt.Sprintf("after %d facts", i+1), e, freshEngine(t, coldTCProgram, facts[:i+1]), queries)
		}
	}
	if st := e.Stats().WAL.Segment; st.SegmentBuilds == 0 {
		t.Fatalf("no flush happened mid-run: %+v", st)
	}
}

// TestGenerationEquivalenceView interleaves View.AddFact and
// View.DeleteFact with View.Query, whose snapshots share the maintained
// relations' indexes until the next write, against a fresh engine under
// every served strategy.
func TestGenerationEquivalenceView(t *testing.T) {
	e := freshEngine(t, coldTCProgram, nil)
	v, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"path(n000, Y)?", "path(X, n005)?", "edge(X, n003)?"}
	var facts [][]string
	check := func(label string) {
		t.Helper()
		oracle := freshEngine(t, coldTCProgram, facts)
		for _, q := range queries {
			got, err := v.Query(q)
			if err != nil {
				t.Fatalf("%s: view %s: %v", label, q, err)
			}
			for _, s := range servedStrategies {
				want, err := oracle.Query(q, WithStrategy(s))
				if err != nil {
					t.Fatalf("%s: oracle %s [%s]: %v", label, q, s, err)
				}
				if got.String() != want.String() {
					t.Fatalf("%s: view %s = %s, fresh engine [%s] %s", label, q, got, s, want)
				}
			}
		}
	}
	for i, f := range coldGraphFacts(40) {
		if _, err := v.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
		facts = append(facts, f)
		if i%5 == 4 {
			check(fmt.Sprintf("after add %d", i+1))
			// Delete an older fact: DRed rewrites the derived relation
			// the last queries indexed.
			gone := facts[len(facts)/2]
			if _, err := v.DeleteFact(gone[0], gone[1:]...); err != nil {
				t.Fatal(err)
			}
			facts = append(facts[:len(facts)/2:len(facts)/2], facts[len(facts)/2+1:]...)
			check(fmt.Sprintf("after delete at %d", i+1))
		}
	}
}

// TestColdNonPrefixIndexOncePerGeneration: in Example 1.2 every strategy
// probes cheaper(Y, W) with W bound — column 1, not a prefix — which on a
// cold relation materializes the segment rows into a hash index. That
// build happens once per generation: a later query on the unmodified
// engine gets the same index, and the first write replaces it with one
// that sees the write.
func TestColdNonPrefixIndexOncePerGeneration(t *testing.T) {
	leakcheck.CheckResources(t)
	const program = `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`
	var facts [][]string
	for i := 0; i < 24; i++ {
		facts = append(facts,
			[]string{"friend", fmt.Sprintf("a%02d", i), fmt.Sprintf("a%02d", i+1)},
			[]string{"cheaper", fmt.Sprintf("g%02d", i+1), fmt.Sprintf("g%02d", i)})
	}
	facts = append(facts, []string{"perfectFor", "a24", "g00"})

	e, err := Open(t.TempDir(), WithCheckpointBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if err := e.AddFact(f[0], f[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	queries := []string{"buys(a00, Y)?", "buys(a12, Y)?", "buys(X, g05)?"}

	cheaperIndex := func() *rel.Index {
		_, db, _ := e.snapshot()
		r := db.Relation("cheaper")
		if r.Cold() == nil {
			t.Fatal("cheaper is not cold after the checkpoint")
		}
		return r.Index([]int{1})
	}
	assertEnginesAgree(t, "first generation", e, freshEngine(t, program, facts), queries)
	first := cheaperIndex()
	assertEnginesAgree(t, "first generation, again", e, freshEngine(t, program, facts), queries)
	if cheaperIndex() != first {
		t.Fatal("a second query on the unmodified engine rebuilt the non-prefix index")
	}

	extra := []string{"cheaper", "g99", "g05"}
	if err := e.AddFact(extra[0], extra[1:]...); err != nil {
		t.Fatal(err)
	}
	facts = append(facts, extra)
	assertEnginesAgree(t, "second generation", e, freshEngine(t, program, facts), queries)
	if cheaperIndex() == first {
		t.Fatal("the write kept the previous generation's index")
	}
}
