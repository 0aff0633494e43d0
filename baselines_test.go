package sepdl

import (
	"fmt"
	"testing"

	"sepdl/internal/ast"
	"sepdl/internal/counting"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/hn"
	"sepdl/internal/parser"
	"sepdl/internal/stats"
)

// stringCase is one full selection both baselines answer.
type stringCase struct {
	name  string
	prog  *ast.Program
	db    *database.Database
	query string
	// chain: every rule string binds a single value, so HN's strings are
	// exactly count's rows.
	chain bool
}

// stringCases are the corpus inputs and the paper's E2, Example 1.2
// and multi-class chains. Queries either baseline rejects are skipped by
// the callers.
func stringCases(t *testing.T) []stringCase {
	var cases []stringCase
	for _, in := range inputs(t) {
		if in.runners != nil {
			continue
		}
		e := plainEngine(t, in.program, factText(in.facts))
		st, db, _ := e.snapshot()
		for _, q := range in.queries {
			cases = append(cases, stringCase{name: in.name, prog: st.prog, db: db, query: q})
		}
	}
	for _, n := range []int{4, 6, 8, 10} {
		for _, shared := range []bool{false, true} {
			cases = append(cases, stringCase{fmt.Sprintf("e2 n=%d shared=%v", n, shared),
				datagen.Example11Program(), datagen.Example11DB(n, shared), "buys(a1, Y)?", true})
		}
	}
	cases = append(cases,
		stringCase{"example12 n=8", datagen.Example12Program(), datagen.Example12DB(8), "buys(a1, Y)?", true},
		stringCase{"multi-class n=6 c=3", datagen.MultiClassProgram(3), datagen.MultiClassDB(6, 3), datagen.MultiClassQuery(3), true},
		stringCase{"multi-class n=6 c=3 full", datagen.MultiClassProgram(3), datagen.MultiClassDB(6, 3), "t(c1v1, c2v6, c3v6)?", true},
	)
	return cases
}

// TestHNStringsAreCountingPaths states the premise that lets
// Henschen–Naqvi run on Generalized Counting's string loop: a rule string
// is a derivation path of count. HN binds each string's driver values and
// answers it apart from the others, so its bindings are count's rows plus
// the per-path answers (hn_bindings = count + count_ans), and its strings
// are count's distinct paths: count itself on chains, fewer where one
// string binds several values (example11-tree's buys(a, Y)?, where the
// friend string from a binds both b and c).
func TestHNStringsAreCountingPaths(t *testing.T) {
	inScope := 0
	for _, c := range stringCases(t) {
		q, err := parser.Query(c.query)
		if err != nil {
			t.Fatal(err)
		}
		cc, hc := stats.New(), stats.New()
		ca, cerr := counting.Answer(c.prog, c.db, q, counting.Options{Collector: cc})
		ha, herr := hn.Answer(c.prog, c.db, q, hn.Options{Collector: hc})
		if (cerr == nil) != (herr == nil) {
			t.Errorf("%s %s: counting err = %v, hn err = %v", c.name, c.query, cerr, herr)
			continue
		}
		if cerr != nil {
			continue
		}
		inScope++
		label := fmt.Sprintf("%s %s", c.name, c.query)
		count, ans := cc.Sizes["count"], cc.Sizes["count_ans"]
		strs, bindings := hc.Sizes["hn_strings"], hc.Sizes["hn_bindings"]
		if bindings != count+ans {
			t.Errorf("%s: hn_bindings = %d, want count + count_ans = %d + %d", label, bindings, count, ans)
		}
		if strs < 1 || strs > count || (c.chain && strs != count) {
			t.Errorf("%s: hn_strings = %d, count = %d (chain %v)", label, strs, count, c.chain)
		}
		if !ca.Equal(ha) {
			t.Errorf("%s: counting answers %s, hn %s", label, ca.Dump(c.db.Syms), ha.Dump(c.db.Syms))
		}
	}
	if inScope < 20 {
		t.Fatalf("only %d cases in both baselines' scope", inScope)
	}
}

// TestBaselineAllocationsPerString pins that the string loop and the
// per-string answer phase allocate nothing per count row: every rule runs
// through one transition runner, the count relation deduplicates, and
// phase 2 is Figure 2's loop over the tagged rows. On Example 1.1 with
// friend = idol, going from n = 10 to n = 12 adds 3 072 count rows and two
// rounds. What may grow with them is the doublings of the relations
// (count, seen_2 and HN's string set) and a round sink and a delta window
// per round: about 20 allocations, 30 under the race detector. The bound,
// one allocation per 32 added rows, is far below the one allocation per
// row and rule that a one-shot transition or a per-string relation costs.
func TestBaselineAllocationsPerString(t *testing.T) {
	const rows = 1<<12 - 1<<10 // count grows from 2¹⁰ − 1 to 2¹² − 1 rows
	const bound = rows / 32
	prog := datagen.Example11Program()
	q, err := parser.Query("buys(a1, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range []struct {
		name   string
		answer func(db *database.Database) error
	}{
		{"counting", func(db *database.Database) error {
			_, err := counting.Answer(prog, db, q, counting.Options{})
			return err
		}},
		{"hn", func(db *database.Database) error {
			_, err := hn.Answer(prog, db, q, hn.Options{})
			return err
		}},
	} {
		allocs := func(n int) float64 {
			db := datagen.Example11DB(n, true)
			return testing.AllocsPerRun(5, func() {
				if err := bl.answer(db); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(10), allocs(12)
		if large-small > bound {
			t.Errorf("%s allocates %v times at n = 10 and %v at n = 12: %v more for %d more count rows, want at most %d",
				bl.name, small, large, large-small, rows, bound)
		}
	}
}
