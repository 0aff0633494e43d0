// Package eval implements bottom-up fixpoint evaluation of Datalog
// programs: the standard semi-naive algorithm (the engine underneath the
// Magic Sets and Counting strategies) and plain naive iteration (kept as an
// ablation baseline).
package eval

import (
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/database"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// Options configure a fixpoint run.
type Options struct {
	// Collector, when non-nil, receives per-round relation sizes.
	Collector *stats.Collector
	// Naive forces full recomputation each round instead of semi-naive
	// deltas (ablation).
	Naive bool
	// Budget, when non-nil, is checked at every fixpoint round and at
	// join-inner-loop granularity; exceeding it aborts the run with a
	// *budget.ResourceError and leaves db untouched.
	Budget *budget.Budget
}

// stratum is one stratum's rules, compiled once and run any number of
// times: a from-scratch fixpoint, or a maintenance pass seeded with
// deltas (see run). Every predicate the rules name has a slot: the
// stratum's own predicates first, in preds order, then the base
// predicates their bodies read, in bases order. The round loop keeps its
// state in slices by slot, so a round looks no predicate up by name.
type stratum struct {
	rules []compiledRule
	preds []string // slots 0..len(preds)-1: the predicates the rules derive
	bases []string // the following slots: the other predicates bodies read
	slot  map[string]int
}

type compiledRule struct {
	rule ast.Rule
	proj *conj.Projector
	occs []int // positive relation atoms: the body positions a delta can fill
	head int   // the head predicate's slot
	body []int // each body atom's slot, by atom index; -1 for builtins

	// runner and row are reusable scratch: one pull-stream runner and one
	// projected-head buffer per rule, reused across every round and run.
	// rels holds the relation each body atom reads, by atom index, set at
	// each run's start and swapped for a delta in delta rounds; src serves
	// it to the runner.
	runner *conj.Runner
	row    rel.Tuple
	rels   []*rel.Relation
	src    conj.RelSource
}

// Run evaluates prog to fixpoint over db and returns a database view that
// shares db's EDB relations and adds one relation per IDB predicate. db is
// not modified. Facts already present in db under an IDB predicate's name
// are treated as initial facts of that predicate.
//
// Programs with negated body atoms are evaluated under the stratified
// semantics: Run computes a stratification (an error if none exists) and
// runs one semi-naive fixpoint per stratum, treating lower strata as
// completed base relations.
func Run(prog *ast.Program, db *database.Database, opts Options) (*database.Database, error) {
	return run(prog, db, opts, nil)
}

// RunMarked is Run that also returns the round marks: marks[k][p] is IDB
// predicate p's total length at the end of global round k, counting the
// rounds of every stratum in order, and marks[0] holds the initial facts.
// Totals only append, and a round reads only windows frozen at its start,
// so Window(0, marks[k][p]) holds the p tuples the first k rounds derived,
// each from tuples of earlier rounds alone.
func RunMarked(prog *ast.Program, db *database.Database, opts Options) (*database.Database, []map[string]int, error) {
	var marks []map[string]int
	view, err := run(prog, db, opts, &marks)
	return view, marks, err
}

// run is Run, appending the round marks to *marks when marks is non-nil.
func run(prog *ast.Program, db *database.Database, opts Options, marks *[]map[string]int) (_ *database.Database, err error) {
	defer budget.Guard(&err)
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	arities, err := prog.Arities()
	if err != nil {
		return nil, err
	}
	strata, err := prog.Stratify()
	if err != nil {
		return nil, err
	}

	view := db.ShallowView()
	for p := range prog.IDBPreds() {
		t := rel.New(arities[p])
		if existing := db.Relation(p); existing != nil {
			t.InsertAll(existing)
		}
		view.Set(p, t)
	}
	var mark func()
	if marks != nil {
		idb := prog.IDBPreds()
		mark = func() {
			m := make(map[string]int, len(idb))
			for p := range idb {
				m[p] = view.Relation(p).Len()
			}
			*marks = append(*marks, m)
		}
		mark()
	}

	for _, preds := range strata {
		inStratum := make(map[string]bool, len(preds))
		for _, p := range preds {
			inStratum[p] = true
		}
		var rules []ast.Rule
		for _, r := range prog.Rules {
			if inStratum[r.Head.Pred] {
				rules = append(rules, r)
			}
		}
		s, err := compileStratum(rules, preds, view.Syms.Intern, opts.Budget)
		if err != nil {
			return nil, err
		}
		s.run(view, nil, nil, opts, mark)
	}
	return view, nil
}

// compileStratum compiles rules, whose heads are among preds, for run. The
// plans tick bud at join-inner-loop granularity.
func compileStratum(rules []ast.Rule, preds []string, intern func(string) rel.Value, bud *budget.Budget) (*stratum, error) {
	s := &stratum{rules: make([]compiledRule, 0, len(rules)), preds: preds, slot: make(map[string]int)}
	for i, p := range preds {
		s.slot[p] = i
	}
	slotOf := func(p string) int {
		i, ok := s.slot[p]
		if !ok {
			i = len(preds) + len(s.bases)
			s.slot[p] = i
			s.bases = append(s.bases, p)
		}
		return i
	}
	for _, r := range rules {
		plan, err := conj.Compile(r.Body, nil, intern)
		if err != nil {
			return nil, fmt.Errorf("eval: rule %s: %w", r, err)
		}
		proj, err := conj.NewProjector(r.Head, plan, intern)
		if err != nil {
			return nil, fmt.Errorf("eval: rule %s: %w", r, err)
		}
		plan.SetTick(bud.TickFunc())
		rels := make([]*rel.Relation, len(r.Body))
		cr := compiledRule{rule: r, proj: proj, head: s.slot[r.Head.Pred], body: make([]int, len(r.Body)),
			runner: plan.NewRunner(), rels: rels}
		cr.row = make(rel.Tuple, proj.Arity())
		cr.src = func(atomIdx int, _ string) *rel.Relation { return rels[atomIdx] }
		for i, a := range r.Body {
			if ast.Builtin(a.Pred) {
				cr.body[i] = -1
				continue
			}
			cr.body[i] = slotOf(a.Pred)
			if !a.Negated {
				cr.occs = append(cr.occs, i)
			}
		}
		s.rules = append(s.rules, cr)
	}
	return s, nil
}

// run evaluates the stratum semi-naively to fixpoint. Rule bodies read
// view, through windows frozen at each round start for the stratum's
// predicates; head tuples stream into out[p], or, when out is nil, into
// view's own relation for p. With a nil seed the first round runs every
// rule in full. Otherwise the first round is a delta round over seed,
// whose entries may name base predicates: a maintenance pass that starts
// from the facts it changed. Every delta round runs each rule once per
// positive body atom whose predicate has a delta, with that delta
// substituted there. A non-nil roundEnd runs after every round.
//
// A run resolves every relation by name once, at its start; a round
// allocates nothing, re-cutting one frozen window, one sink and one delta
// window per slot in place. The budget is charged every round; the
// collector's counters are tallied in locals and reported when the run
// ends or aborts.
//
// A run into a non-nil out (DRed's over-deletion marks) charges rounds and
// join ticks but not derived tuples: it mutates nothing the view serves.
func (s *stratum) run(view *database.Database, out, seed map[string]*rel.Relation, opts Options, roundEnd func()) {
	fixpoint := out == nil
	n := len(s.preds)
	// totals are the stratum's relations in view, which rule bodies read;
	// outs the relations their heads stream into.
	totals := make([]*rel.Relation, n)
	outs := totals
	if !fixpoint {
		outs = make([]*rel.Relation, n)
	}
	for i, p := range s.preds {
		totals[i] = view.Relation(p)
		if !fixpoint {
			outs[i] = out[p]
		}
	}
	// The sinks append during a round, so rule bodies read windows
	// instead: frozen, each total as it stood when the round began, and
	// delta, by slot, the rows the previous round added (or the seed).
	delta := make([]*rel.Relation, n+len(s.bases))
	seeded := false
	for p, d := range seed {
		if d.Empty() {
			continue
		}
		seeded = true
		if i, ok := s.slot[p]; ok {
			delta[i] = d
		}
	}
	if seed != nil && !seeded {
		return // nothing to propagate, and no round to charge
	}
	frozen := make([]rel.Relation, n)
	deltas := make([]rel.Relation, n)
	sinks := make([]RoundSink, n)
	reads := make([]*rel.Relation, n+len(s.bases))
	for i := range frozen {
		reads[i] = &frozen[i]
	}
	for i, p := range s.bases {
		reads[n+i] = view.Relation(p)
	}
	for ri := range s.rules {
		cr := &s.rules[ri]
		for j, sl := range cr.body {
			if sl >= 0 {
				cr.rels[j] = reads[sl]
			}
		}
	}

	var rounds, inserted int
	var peak int64
	sizes := make([]int, n) // the totals' lengths at the last completed round's end
	sized := false
	defer func() {
		opts.Collector.AddRounds(rounds, inserted, peak)
		if sized {
			for i, size := range sizes {
				opts.Collector.Observe(s.preds[i], size)
			}
		}
	}()

	// runRule pulls the rule's satisfying bindings one at a time and
	// streams each projected head straight into the round sink — nothing
	// between the body's index scans and the sink is materialized.
	runRule := func(cr *compiledRule, into *RoundSink) {
		st := cr.runner.Stream(cr.src, nil)
		for b, ok := st.Next(); ok; b, ok = st.Next() {
			into.Add(cr.proj.Tuple(b, cr.row))
		}
	}

	// runRound evaluates one round, either every rule in full or the delta
	// round, and reports whether any sink grew.
	runRound := func(full bool) bool {
		opts.Budget.Round()
		rounds++
		for i, t := range totals {
			frozen[i].Recut(t, 0, t.Len())
			sinks[i] = RoundSink{total: outs[i], lo: outs[i].Len()}
		}
		for i := range s.rules {
			cr := &s.rules[i]
			into := &sinks[cr.head]
			if full {
				runRule(cr, into)
				continue
			}
			for _, occ := range cr.occs {
				d := delta[cr.body[occ]]
				if d == nil {
					continue
				}
				whole := cr.rels[occ]
				cr.rels[occ] = d
				runRule(cr, into)
				cr.rels[occ] = whole
			}
		}

		clear(delta)
		grew := false
		var interBytes int64
		for i := range sinks {
			sink := &sinks[i]
			added := sink.total.Len() - sink.lo
			arity := sink.total.Arity()
			interBytes += int64(added) * int64(arity) * int64(rel.ValueBytes)
			if added == 0 {
				continue
			}
			deltas[i].Recut(sink.total, sink.lo, sink.total.Len())
			delta[i], grew = &deltas[i], true
			if fixpoint {
				inserted += added
				opts.Budget.AddDerived(added, arity)
			}
		}
		if fixpoint {
			peak = max(peak, interBytes)
			for i, t := range totals {
				sizes[i] = t.Len()
			}
			sized = true
		}
		if roundEnd != nil {
			roundEnd()
		}
		return grew
	}

	changed := runRound(seed == nil)
	for changed {
		changed = runRound(opts.Naive)
	}
}

// QueryVars returns the distinct variables of q in order of first
// occurrence; these are the columns of the answer relation.
func QueryVars(q ast.Atom) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range q.Args {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// Answer selects the tuples of q.Pred matching q's constants (and repeated
// variables) from db and projects them onto q's distinct variables, in
// first-occurrence order. A missing relation yields an empty answer.
func Answer(db *database.Database, q ast.Atom) (*rel.Relation, error) {
	vars := QueryVars(q)
	out := rel.New(len(vars))
	r := db.Relation(q.Pred)
	if r == nil {
		return out, nil
	}
	if r.Arity() != len(q.Args) {
		return nil, fmt.Errorf("eval: query %s has arity %d, relation has %d", q, len(q.Args), r.Arity())
	}
	varPos := make(map[string]int) // var -> first column position
	var constCols []int
	var constVals []rel.Value
	for i, t := range q.Args {
		if t.IsVar() {
			if _, ok := varPos[t.Name]; !ok {
				varPos[t.Name] = i
			}
			continue
		}
		v, ok := db.Syms.Lookup(t.Name)
		if !ok {
			return out, nil // constant absent from the database: no matches
		}
		constCols = append(constCols, i)
		constVals = append(constVals, v)
	}
	row := make(rel.Tuple, len(vars))
	emit := func(t rel.Tuple) {
		for i, arg := range q.Args {
			if arg.IsVar() && t[varPos[arg.Name]] != t[i] {
				return // repeated query variable mismatch
			}
		}
		for j, v := range vars {
			row[j] = t[varPos[v]]
		}
		out.Insert(row)
	}
	if len(constCols) > 0 {
		for _, t := range r.Index(constCols).Lookup(constVals) {
			emit(t)
		}
	} else {
		for i := range r.Len() {
			emit(r.Row(i))
		}
	}
	return out, nil
}
