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
	// MaxIterations bounds the number of fixpoint rounds; 0 means no bound.
	// Exceeding the bound yields a *budget.ResourceError (used to cut off
	// divergent methods; distinguish it from malformed-program errors with
	// errors.Is(err, budget.ErrBudget)).
	MaxIterations int
	// Naive forces full recomputation each round instead of semi-naive
	// deltas (ablation).
	Naive bool
	// Budget, when non-nil, is checked at every fixpoint round and at
	// join-inner-loop granularity; exceeding it aborts the run with a
	// *budget.ResourceError and leaves db untouched.
	Budget *budget.Budget
	// MaterializeRounds restores the pre-streaming round pipeline as an
	// ablation: every rule emission is materialized into an intermediate
	// round relation whose tuples absent from the totals are folded in at
	// the round boundary, instead of streaming emissions through a
	// RoundSink straight into the totals. The answer, the round structure
	// and every relation size are identical.
	MaterializeRounds bool
}

// stratum is one stratum's rules, compiled once and run any number of
// times: a from-scratch fixpoint, or a maintenance pass seeded with
// deltas (see run).
type stratum struct {
	rules []compiledRule
	preds []string // the predicates the stratum's rules derive
}

type compiledRule struct {
	rule ast.Rule
	proj *conj.Projector
	occs []int // positive relation atoms: the body positions a delta can fill

	// runner and row are reusable scratch: one pull-stream runner and one
	// projected-head buffer per rule, reused across every round and run.
	// rels holds the relation each body atom reads, by atom index, set at
	// each round start; src serves it to the runner.
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
func Run(prog *ast.Program, db *database.Database, opts Options) (_ *database.Database, err error) {
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
		if err := s.run(view, nil, nil, opts); err != nil {
			return nil, err
		}
	}
	return view, nil
}

// compileStratum compiles rules, whose heads are among preds, for run. The
// plans tick bud at join-inner-loop granularity.
func compileStratum(rules []ast.Rule, preds []string, intern func(string) rel.Value, bud *budget.Budget) (*stratum, error) {
	s := &stratum{rules: make([]compiledRule, 0, len(rules)), preds: preds}
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
		cr := compiledRule{rule: r, proj: proj, runner: plan.NewRunner(), rels: rels}
		cr.row = make(rel.Tuple, proj.Arity())
		cr.src = func(atomIdx int, _ string) *rel.Relation { return rels[atomIdx] }
		for i, a := range r.Body {
			if !a.Negated && !ast.Builtin(a.Pred) {
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
// substituted there.
//
// A run into a non-nil out (DRed's over-deletion marks) charges rounds and
// join ticks but not derived tuples: it mutates nothing the view serves.
func (s *stratum) run(view *database.Database, out, seed map[string]*rel.Relation, opts Options) error {
	fixpoint := out == nil
	if fixpoint {
		out = make(map[string]*rel.Relation, len(s.preds))
		for _, p := range s.preds {
			out[p] = view.Relation(p)
		}
	}
	// The sinks append during a round, so rule bodies read windows
	// instead: frozen, each of the stratum's relations in view as it stood
	// when the round began, and delta, the rows the previous round added.
	sinks := make(map[string]*RoundSink, len(s.preds))
	frozen := make(map[string]*rel.Relation, len(s.preds))
	delta := make(map[string]*rel.Relation, len(s.preds))
	for p, d := range seed {
		if !d.Empty() {
			delta[p] = d
		}
	}
	if seed != nil && len(delta) == 0 {
		return nil // nothing to propagate, and no round to charge
	}

	// runRule pulls the rule's satisfying bindings one at a time and
	// streams each projected head straight into the round sink — nothing
	// between the body's index scans and the sink is materialized.
	runRule := func(cr *compiledRule, into *RoundSink) {
		st := cr.runner.Stream(cr.src, nil)
		for b, ok := st.Next(); ok; b, ok = st.Next() {
			into.Add(cr.proj.Tuple(b, cr.row))
		}
	}

	// runRound evaluates one round into fresh sinks, either every rule in
	// full or the delta round, and reports whether any sink grew.
	runRound := func(full bool) bool {
		opts.Budget.Round()
		opts.Collector.AddIteration()
		for _, p := range s.preds {
			r := view.Relation(p)
			frozen[p] = r.Window(0, r.Len())
			sinks[p] = NewRoundSink(out[p], opts.MaterializeRounds)
		}
		for i := range s.rules {
			cr := &s.rules[i]
			for j, a := range cr.rule.Body {
				if f := frozen[a.Pred]; f != nil {
					cr.rels[j] = f
				} else {
					cr.rels[j] = view.Relation(a.Pred)
				}
			}
			into := sinks[cr.rule.Head.Pred]
			if full {
				runRule(cr, into)
				continue
			}
			for _, occ := range cr.occs {
				d := delta[cr.rule.Body[occ].Pred]
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
		var interBytes int64
		for p, sink := range sinks {
			d := sink.Delta()
			arity := out[p].Arity()
			interBytes += int64(sink.IntermediateLen(d)) * int64(arity) * int64(rel.ValueBytes)
			if d.Empty() {
				continue
			}
			delta[p] = d
			if fixpoint {
				opts.Collector.AddInserted(d.Len())
				opts.Budget.AddDerived(d.Len(), arity)
			}
		}
		if fixpoint {
			opts.Collector.ObserveIntermediate(interBytes)
			for _, p := range s.preds {
				opts.Collector.Observe(p, out[p].Len())
			}
		}
		return len(delta) > 0
	}

	changed := runRound(seed == nil)
	for round := 1; changed; round++ {
		if opts.MaxIterations > 0 && round >= opts.MaxIterations {
			return budget.RoundsExceeded(opts.Budget.Strategy(), round, opts.MaxIterations)
		}
		changed = runRound(opts.Naive)
	}
	return nil
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
