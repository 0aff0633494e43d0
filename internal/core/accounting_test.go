package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/datagen"
	"sepdl/internal/plancache"
	"sepdl/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/accounting.golden from current output")

// TestSeparableAccountingGolden pins the exact Figure 2 accounting of
// Separable evaluations — the maxima of carry_1, seen_1, carry_2, seen_2
// and ans, the round count, the insertion count and the peak intermediate
// bytes — together with each answer's rows in delivery order, without and
// with the closure cache. Without the cache, phase 2 runs the carry loop
// on one class and the product on two or more; the cache routes one class
// through the product too. Regenerate with go test ./internal/core/ -run
// TestSeparableAccountingGolden -update only when the accounting is meant
// to change.
func TestSeparableAccountingGolden(t *testing.T) {
	cases := []struct {
		name, prog, query string
		db                func(t *testing.T) *database.Database
	}{
		{"example11", example11, `buys(tom, Y)?`, example11DB},
		{"example11-persistent", example11, `buys(X, radio)?`, example11DB},
		{"example12", example12, `buys(tom, Y)?`, func(t *testing.T) *database.Database {
			db := database.New()
			mustLoad(t, db, `
friend(tom, dick). friend(dick, harry).
perfectFor(harry, tv). perfectFor(dick, stereo).
cheaper(radio, tv). cheaper(pencil, radio). cheaper(eraser, pencil).
cheaper(walkman, stereo).
perfectFor(alice, car). cheaper(toy, car).
`)
			return db
		}},
		{"example12-chain", example12, `buys(a1, Y)?`, func(*testing.T) *database.Database {
			return datagen.Example12DB(12)
		}},
		{"example24-partial", example24, `t(c, Y, Z)?`, func(t *testing.T) *database.Database {
			db := database.New()
			mustLoad(t, db, `
a(c, y1, u1, v1). a(u1, v1, u2, v2). a(qq, zz, u9, v9). a(c, y2, u1, v1).
t0(u2, v2, w1). t0(c, y1, w0). t0(u9, v9, w9). t0(c, y2, w1).
b(w1, z1). b(z1, z2). b(w0, z0).
`)
			return db
		}},
		{"multiclass-c3-n5", datagen.MultiClassProgram(3).String(), datagen.MultiClassQuery(3), func(*testing.T) *database.Database {
			return datagen.MultiClassDB(5, 3)
		}},
	}
	paths := []struct {
		name string
		opts func() EvalOptions
	}{
		{"loop", func() EvalOptions { return EvalOptions{} }},
		{"product", func() EvalOptions { return EvalOptions{Closures: plancache.NewClosures(0)} }},
	}

	var b strings.Builder
	for _, c := range cases {
		prog := mustProgram(t, c.prog)
		q := mustQuery(t, c.query)
		db := c.db(t)
		for _, p := range paths {
			col := stats.New()
			opts := p.opts()
			opts.Collector = col
			ans, err := Answer(prog, db, q, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, p.name, err)
			}
			sizes := col.SizesCopy()
			names := make([]string, 0, len(sizes))
			for n := range sizes {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "%s %s: iterations=%d inserted=%d peak_bytes=%d",
				c.name, p.name, col.Iterations, col.Inserted, col.PeakIntermediate())
			for _, n := range names {
				fmt.Fprintf(&b, " %s=%d", n, sizes[n])
			}
			b.WriteString("\n  ans:")
			for i := range ans.Len() {
				row := ans.Row(i)
				parts := make([]string, len(row))
				for j, v := range row {
					parts[j] = db.Syms.Name(v)
				}
				b.WriteString(" (" + strings.Join(parts, ",") + ")")
			}
			b.WriteString("\n")
		}
	}

	const golden = "testdata/accounting.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Separable accounting drifted from %s (rerun with -update if intended):\n%s", golden, got)
	}
}

// TestCarryLoopJoinWorkIsLinear bounds the join work of Figure 2's carry
// loops, which the relation sizes cannot see: a round that re-expanded all
// of seen instead of the last round's carry would derive the same tuples.
// A probed budget counts every join tick and round, without and with the
// closure cache. On Example 1.2's chains of n people and n products
// (buys(a1, Y)?, one phase-2 class) each carry row is joined once, so the
// count stays at most 5n. On MultiClassDB(n, c) with its driver query the
// c-1 phase-2 classes multiply into n^(c-1) answers; the product joins
// each class's chain once and ticks once per answer, so the count stays
// at most |ans| + 3cn, where the interleaved loop would derive every
// answer once per neighbouring class.
func TestCarryLoopJoinWorkIsLinear(t *testing.T) {
	type workload struct {
		name  string
		prog  string
		db    *database.Database
		query string
		nAns  int
		bound int64
	}
	var cases []workload
	for _, n := range []int{50, 100, 200} {
		cases = append(cases, workload{fmt.Sprintf("example12-n%d", n), example12, datagen.Example12DB(n), `buys(a1, Y)?`, n, int64(5 * n)})
	}
	for _, c := range []int{3, 4} {
		for _, n := range []int{8, 16, 32} {
			nAns := 1
			for range c - 1 {
				nAns *= n
			}
			cases = append(cases, workload{fmt.Sprintf("multiclass-c%d-n%d", c, n), datagen.MultiClassProgram(c).String(),
				datagen.MultiClassDB(n, c), datagen.MultiClassQuery(c), nAns, int64(nAns + 3*c*n)})
		}
	}
	paths := []struct {
		name string
		opts func() EvalOptions
	}{
		{"no-cache", func() EvalOptions { return EvalOptions{} }},
		{"closure-cache", func() EvalOptions { return EvalOptions{Closures: plancache.NewClosures(0)} }},
	}
	for _, w := range cases {
		prog := mustProgram(t, w.prog)
		q := mustQuery(t, w.query)
		for _, p := range paths {
			var calls atomic.Int64
			opts := p.opts()
			opts.Budget = budget.NewProbed(context.Background(), budget.Limits{}, func() error {
				calls.Add(1)
				return nil
			})
			ans, err := Answer(prog, w.db, q, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, p.name, err)
			}
			if ans.Len() != w.nAns {
				t.Fatalf("%s %s: %d answers, want %d", w.name, p.name, ans.Len(), w.nAns)
			}
			if got := calls.Load(); got > w.bound {
				t.Errorf("%s %s: %d join ticks and rounds, want at most %d", w.name, p.name, got, w.bound)
			}
			t.Logf("%s %s: %d", w.name, p.name, calls.Load())
		}
	}
}

// TestCarryRoundsDoNotAllocate pins that a carry-loop round allocates
// nothing: the carry is a row range of seen, emit is one closure per loop,
// every transition's relations are resolved once per query, and the
// collector is updated once per loop. Example 1.2's buys(a1, Y)? runs about
// 2n rounds (n over the friend chain, n over the cheaper chain), so going
// from n = 64 to n = 256 adds about 384 rounds. The only allocations that
// may grow with n are the doublings of the relations Figure 2 grows:
// seen_1, seen_2 and the answer relation each double their row array and
// their row table twice on a 4x growth, 2 x 2 x 3 = 12 allocations. Under
// the race detector some runs count one allocation more, so the bound
// allows 2 beyond that. Three allocations per round (a round sink, its Add
// method value and the delta window) would add over a thousand.
func TestCarryRoundsDoNotAllocate(t *testing.T) {
	const doublingAllocs, raceJitter = 2 * 2 * 3, 2
	prog := mustProgram(t, example12)
	q := mustQuery(t, `buys(a1, Y)?`)
	a, err := Analyze(prog, "buys")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		db := datagen.Example12DB(n)
		col := stats.New()
		return testing.AllocsPerRun(10, func() {
			if _, err := Answer(prog, db, q, EvalOptions{Analysis: a, Collector: col}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(256)
	if large-small > doublingAllocs+raceJitter {
		t.Errorf("Answer allocates %v times at n = 64 and %v at n = 256: %v more for ~384 more rounds, want at most %d (the relations' doublings) + %d",
			small, large, large-small, doublingAllocs, raceJitter)
	}
}
