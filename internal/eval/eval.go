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

type compiledRule struct {
	rule    ast.Rule
	plan    *conj.Plan
	proj    *conj.Projector
	idbOccs []int // body atom indexes whose predicate is IDB

	// runner and row are reusable scratch: one pull-stream runner and one
	// projected-head buffer per rule, reused across every round of the
	// stratum. rels holds the relation each body atom reads, by atom
	// index, set at each round start; src serves it to the runner.
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
	idb := prog.IDBPreds()

	view := db.ShallowView()
	total := make(map[string]*rel.Relation)
	for p := range idb {
		t := rel.New(arities[p])
		if existing := db.Relation(p); existing != nil {
			t.InsertAll(existing)
		}
		total[p] = t
		view.Set(p, t)
	}

	for _, stratum := range strata {
		inStratum := make(map[string]bool, len(stratum))
		for _, p := range stratum {
			inStratum[p] = true
		}
		var rules []ast.Rule
		for _, r := range prog.Rules {
			if inStratum[r.Head.Pred] {
				rules = append(rules, r)
			}
		}
		if err := runStratum(rules, inStratum, view, total, opts); err != nil {
			return nil, err
		}
	}
	return view, nil
}

// runStratum runs one semi-naive fixpoint over the given rules. inStratum
// names the predicates being computed; IDB predicates of lower strata are
// already complete in view and act as base relations (their occurrences
// never read deltas).
func runStratum(rules []ast.Rule, inStratum map[string]bool, view *database.Database, total map[string]*rel.Relation, opts Options) error {
	intern := view.Syms.Intern
	compiled := make([]compiledRule, 0, len(rules))
	for _, r := range rules {
		plan, err := conj.Compile(r.Body, nil, intern)
		if err != nil {
			return fmt.Errorf("eval: rule %s: %w", r, err)
		}
		proj, err := conj.NewProjector(r.Head, plan, intern)
		if err != nil {
			return fmt.Errorf("eval: rule %s: %w", r, err)
		}
		plan.SetTick(opts.Budget.TickFunc())
		cr := compiledRule{rule: r, plan: plan, proj: proj}
		cr.runner = plan.NewRunner()
		cr.row = make(rel.Tuple, proj.Arity())
		cr.rels = make([]*rel.Relation, len(r.Body))
		for i, a := range r.Body {
			if inStratum[a.Pred] && !a.Negated {
				cr.idbOccs = append(cr.idbOccs, i)
			}
		}
		compiled = append(compiled, cr)
	}
	for i := range compiled {
		rels := compiled[i].rels
		compiled[i].src = func(atomIdx int, _ string) *rel.Relation { return rels[atomIdx] }
	}

	// runRule pulls the rule's satisfying bindings one at a time and
	// streams each projected head straight into the round sink — nothing
	// between the body's index scans and the sink is materialized.
	runRule := func(cr *compiledRule, into *RoundSink) {
		s := cr.runner.Stream(cr.src, nil)
		for b, ok := s.Next(); ok; b, ok = s.Next() {
			into.Add(cr.proj.Tuple(b, cr.row))
		}
	}

	// The sinks append to the totals during a round, so rule bodies read
	// windows instead: frozen, each in-stratum total as it stood when the
	// round began, and delta, the rows the previous round appended.
	sinks := make(map[string]*RoundSink, len(inStratum))
	frozen := make(map[string]*rel.Relation, len(inStratum))
	delta := make(map[string]*rel.Relation, len(inStratum))

	// runRound evaluates one round into fresh sinks. Round 0 and naive
	// rounds run every rule against the frozen totals; semi-naive rounds
	// run each recursive rule once per IDB occurrence with the previous
	// round's delta substituted there. It reports whether any total grew.
	runRound := func(fromDelta bool) bool {
		opts.Budget.Round()
		opts.Collector.AddIteration()
		for p := range inStratum {
			frozen[p] = total[p].Window(0, total[p].Len())
			sinks[p] = NewRoundSink(total[p], opts.MaterializeRounds)
		}
		for i := range compiled {
			cr := &compiled[i]
			for j, a := range cr.rule.Body {
				if f := frozen[a.Pred]; f != nil {
					cr.rels[j] = f
				} else {
					cr.rels[j] = view.Relation(a.Pred)
				}
			}
			into := sinks[cr.rule.Head.Pred]
			if !fromDelta {
				runRule(cr, into)
				continue
			}
			// Exit rules (no IDB occurrence) cannot produce new facts
			// after round 0.
			for _, occ := range cr.idbOccs {
				pred := cr.rule.Body[occ].Pred
				cr.rels[occ] = delta[pred]
				runRule(cr, into)
				cr.rels[occ] = frozen[pred]
			}
		}

		changed := false
		var interBytes int64
		for p, s := range sinks {
			d := s.Delta()
			delta[p] = d
			added := d.Len()
			opts.Collector.AddInserted(added)
			opts.Budget.AddDerived(added, total[p].Arity())
			interBytes += int64(s.IntermediateLen(d)) * int64(total[p].Arity()) * int64(rel.ValueBytes)
			if added > 0 {
				changed = true
			}
		}
		opts.Collector.ObserveIntermediate(interBytes)
		for p := range inStratum {
			opts.Collector.Observe(p, total[p].Len())
		}
		return changed
	}

	changed := runRound(false)
	for round := 1; changed; round++ {
		if opts.MaxIterations > 0 && round >= opts.MaxIterations {
			return budget.RoundsExceeded(opts.Budget.Strategy(), round, opts.MaxIterations)
		}
		changed = runRound(!opts.Naive)
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
