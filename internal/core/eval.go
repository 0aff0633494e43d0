package core

import (
	"errors"
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/plancache"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// ErrNoSelection reports a query with no constants: the Separable algorithm
// evaluates selections (§2); callers should fall back to plain bottom-up
// evaluation.
var ErrNoSelection = errors.New("core: query has no constants; the Separable algorithm requires a selection")

// EvalOptions configure Answer and AnswerBatch.
type EvalOptions struct {
	// Collector, when non-nil, receives the sizes of carry_1, seen_1,
	// carry_2, seen_2 and ans — the relations of Figure 2, which are the
	// paper's §4 measure.
	Collector *stats.Collector
	// Analysis supplies a precomputed separability analysis; when nil,
	// Answer runs Analyze itself.
	Analysis *Analysis
	// AllowDisconnected forwards to Analyze (§5 condition-4 relaxation).
	AllowDisconnected bool
	// Budget, when non-nil, is checked at every carry-loop round and at
	// join-inner-loop granularity; exceeding it aborts the evaluation with
	// a *budget.ResourceError and leaves db untouched.
	Budget *budget.Budget
	// Closures, when non-nil, memoizes the second loop's per-start class
	// closures across queries: those closures depend only on the program
	// and the EDB, never on the selection constant, so repeated queries of
	// one form reuse them. Phase 2 takes the product form whenever it has
	// two or more classes; enabling the cache routes a single class through
	// it too (the only form that computes closures as reusable units). The
	// answer set is identical. Cache fills run under the evaluation's
	// budget like any other carry loop.
	Closures *plancache.Closures
	// CacheScope carries the program and database revisions closure-cache
	// entries are keyed under. Answer fills in the predicate and relaxation
	// itself; callers (the engine) supply only the revisions. Ignored when
	// Closures is nil.
	CacheScope plancache.Scope
}

// Answer evaluates the selection query q on the separable recursion
// defining q.Pred in prog over db, using the evaluation schema of Figure 2.
// Partial selections are handled per Lemma 2.1 as a union of full
// selections. The result is a relation over q's distinct variables in
// first-occurrence order. One query is a batch of one: Answer is
// AnswerBatch over []ast.Atom{q}, which seeds carry_1 without a seed-index
// tag and so builds exactly the relations of Figure 2.
func Answer(prog *ast.Program, db *database.Database, q ast.Atom, opts EvalOptions) (*rel.Relation, error) {
	out, err := AnswerBatch(prog, db, []ast.Atom{q}, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// evaluator holds the pieces shared by the schema's phases.
type evaluator struct {
	a        *Analysis
	db       *database.Database
	col      *stats.Collector
	bud      *budget.Budget
	closures *plancache.Closures
	scope    plancache.Scope
	// seedW is the width of the seed-index tag: 1 when a batch of several
	// distinct seeds shares the run, 0 for a single seed (see seedGroups).
	seedW int
}

// newEvaluator builds the evaluator for one analyzed predicate, pinning the
// closure-cache scope to that predicate and its analysis relaxation so
// callers cannot key entries under the wrong form.
func newEvaluator(a *Analysis, base *database.Database, pred string, opts EvalOptions) *evaluator {
	scope := opts.CacheScope
	scope.Pred = pred
	scope.Relaxed = a.AllowDisconnected
	return &evaluator{a: a, db: base, col: opts.Collector, bud: opts.Budget,
		closures: opts.Closures, scope: scope}
}

// fixpoint runs one carry loop of Figure 2 — lines 1-7 over the driver
// class, lines 10-14 over the others — to its fixpoint over seen. carry
// starts as all of seen; each round applies step to every carry row,
// whose emissions insert straight into seen (a set, so a new tuple is
// hashed and copied once), and the next carry is the row range lo..hi the
// round appended. A round allocates nothing beyond seen's own growth: the
// carry is two ints and emit is one closure per loop. The budget is
// charged every round; the collector's counters (rounds, insertions, peak
// intermediate bytes, and the carry and seen maxima under carryName and
// seenName when those are set) are tallied in locals and reported once,
// when the loop ends or aborts.
func (e *evaluator) fixpoint(seen *rel.Relation, carryName, seenName string, step func(t rel.Tuple, emit func(rel.Tuple))) {
	arity := seen.Arity()
	emit := func(t rel.Tuple) { seen.Insert(t) }
	var rounds, inserted, maxCarry, maxSeen int
	defer func() {
		e.col.AddRounds(rounds, inserted, int64(maxCarry)*int64(arity)*rel.ValueBytes)
		if carryName != "" && maxSeen > 0 { // a round completed
			e.col.Observe(carryName, maxCarry)
			e.col.Observe(seenName, maxSeen)
		}
	}()
	for lo, hi := 0, seen.Len(); lo < hi; lo, hi = hi, seen.Len() {
		e.bud.Round()
		rounds++
		for i := lo; i < hi; i++ {
			step(seen.Row(i), emit)
		}
		n := seen.Len() - hi
		inserted += n
		maxCarry = max(maxCarry, n)
		maxSeen = seen.Len()
		e.bud.AddDerived(n, arity)
	}
}

// taggedStep is the fixpoint step of a carry loop whose rows are tagW tag
// columns followed by the transitions' input columns (phase 1, and a class
// closure of the product evaluator): every transition is applied to the
// values, and each emission is written after the row's tag into a reused
// buffer of the given arity.
func taggedStep(runners []*conj.TransitionRunner, tagW, arity int) func(rel.Tuple, func(rel.Tuple)) {
	row := make(rel.Tuple, 0, arity)
	return func(t rel.Tuple, emit func(rel.Tuple)) {
		tag := t[:tagW]
		out := func(o rel.Tuple) { emit(append(append(row[:0], tag...), o...)) }
		for _, run := range runners {
			run.Apply(t[tagW:], out)
		}
	}
}

// headVarsAt returns the canonical head variables for positions.
func headVarsAt(positions []int) []string {
	out := make([]string, len(positions))
	for i, p := range positions {
		out[i] = ast.CanonicalHeadVar(p)
	}
	return out
}

// constsAt interns the query constants at positions, in order.
func constsAt(q ast.Atom, positions []int, intern func(string) rel.Value) rel.Tuple {
	t := make(rel.Tuple, len(positions))
	for i, p := range positions {
		t[i] = intern(q.Args[p].Name)
	}
	return t
}

// run executes the schema of Figure 2.
//
// driverCols are the bound columns (V(t|e_1) for a class-driven run, the
// selected persistent columns otherwise). phase1Class is the class whose
// rules extend carry_1 head-to-body, or -1 to skip the first loop (the
// SelPers "dummy class" variant and the t_part branch of Lemma 2.1).
// excludePhase2 names a class omitted from the second loop (-1: none).
// seeds initializes carry_1 and becomes seen_1, which run grows in place;
// its tuples are tagW tag columns followed by one column per driver column. The result relation has tagW tag columns
// followed by one column per output column; outCols lists the output
// positions ascending (every position outside driverCols).
func (e *evaluator) run(driverCols []int, phase1Class, excludePhase2 int, seeds *rel.Relation, tagW int) (*rel.Relation, []int, error) {
	intern := e.db.Syms.Intern
	src := conj.DBSource(e.db.Relation)

	// Phase 1: carry_1/seen_1 over the driver columns (lines 1-7). The
	// seeds are seen_1 itself: carry_1 starts as all of it.
	seen1 := seeds
	e.col.Observe("carry1", seen1.Len())
	e.col.Observe("seen1", seen1.Len())
	if phase1Class >= 0 {
		cls := &e.a.Classes[phase1Class]
		runners := make([]*conj.TransitionRunner, len(cls.Rules))
		for i, r := range cls.Rules {
			tr, err := conj.NewTransition(r.Conj, cls.HeadVars, r.BodyVars, intern)
			if err != nil {
				return nil, nil, fmt.Errorf("core: rule %s: %w", r.Rule, err)
			}
			tr.SetTick(e.bud.TickFunc())
			runners[i] = tr.NewRunner(src)
		}
		e.fixpoint(seen1, "carry1", "seen1", taggedStep(runners, tagW, seen1.Arity()))
	}

	// Output columns: every position outside the driver columns.
	inDriver := make(map[int]bool, len(driverCols))
	for _, p := range driverCols {
		inDriver[p] = true
	}
	var outCols []int
	for p := 0; p < e.a.Arity; p++ {
		if !inDriver[p] {
			outCols = append(outCols, p)
		}
	}

	// Phase 2 initialization (line 8): carry_2 := t_0 & seen_1. Emissions
	// stream through a reused row buffer straight into seen_2 (a set, so
	// duplicates collapse on insert), and carry_2 is all of it.
	seen2 := rel.New(tagW + len(outCols))
	row := make(rel.Tuple, 0, seen2.Arity())
	for _, ex := range e.a.Exit {
		tr, err := conj.NewTransition(ex.Body, headVarsAt(driverCols), headVarsAt(outCols), intern)
		if err != nil {
			return nil, nil, fmt.Errorf("core: exit rule %s: %w", ex, err)
		}
		tr.SetTick(e.bud.TickFunc())
		run := tr.NewRunner(src)
		var tag rel.Tuple
		emit := func(out rel.Tuple) {
			seen2.Insert(append(append(row[:0], tag...), out...))
		}
		for i := range seen1.Len() {
			t := seen1.Row(i)
			tag = t[:tagW]
			run.Apply(t[tagW:], emit)
		}
	}
	e.bud.AddDerived(seen2.Len(), seen2.Arity())
	e.col.Observe("carry2", seen2.Len())
	e.col.Observe("seen2", seen2.Len())

	// Phase 2 loop (lines 10-14): apply every remaining class body-to-head,
	// as a product of per-class closures or, for one class, as the carry
	// loop (see productPhase2).
	p2, err := e.phase2Classes(phase1Class, excludePhase2, outCols, intern)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case e.productPhase2(len(p2)):
		e.runPhase2Product(p2, seen2, tagW, src)
	case len(p2) == 1:
		e.runPhase2Loop(&p2[0], seen2, tagW, src)
	}
	return seen2, outCols, nil
}

// MaterializeSupport evaluates the IDB predicates that pred's definition
// depends on (other than pred itself) and returns a database view exposing
// them as base relations. When pred uses no other IDB predicate, db is
// returned unchanged. The Separable evaluator and the Counting,
// Henschen-Naqvi and tabling baselines share it; opts govern the support
// fixpoint like any other.
func MaterializeSupport(prog *ast.Program, db *database.Database, pred string, opts eval.Options) (*database.Database, error) {
	deps := prog.DependsOn(pred)
	var subRules []ast.Rule
	for _, r := range prog.Rules {
		if r.Head.Pred != pred && deps[r.Head.Pred] {
			subRules = append(subRules, r)
		}
	}
	if len(subRules) == 0 {
		return db, nil
	}
	return eval.Run(ast.NewProgram(subRules...), db, opts)
}
