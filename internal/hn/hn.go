// Package hn implements the iterative query/answer evaluation of Henschen
// and Naqvi [HN84] for selection queries on linear recursions, as
// characterized in the paper's related-work discussion (§1): the method
// enumerates rule strings — sequences of recursive-rule applications — and
// evaluates each string separately, pushing the selection constant through
// the string's driver side and composing the answer side per string.
//
// Two defects the paper points out are reproduced faithfully:
//
//   - With multiple recursive rules in the bound class, the number of rule
//     strings explodes: Ω(2ⁿ) on Example 1.1.
//   - On cyclic data a string's binding set never becomes empty, so string
//     enumeration does not terminate; Options.MaxDepth turns that into
//     ErrDiverged.
//
// Like the counting package, the implementation is scoped to full
// selections on separable-shaped linear recursions, which covers every
// comparison in the paper.
package hn

import (
	"errors"
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// ErrDiverged reports string enumeration exceeding the depth bound, which
// happens exactly when the driving relations are cyclic from the query
// constant.
var ErrDiverged = errors.New("hn: rule-string enumeration exceeded its depth/work bound (cyclic data?)")

// ErrUnsupported reports a query outside the method's scope here.
var ErrUnsupported = errors.New("hn: unsupported query for Henschen-Naqvi (needs a full selection on a separable-shaped recursion)")

// Options configure Answer.
type Options struct {
	// Collector receives the number of rule strings processed and the
	// total bindings materialized across strings.
	Collector *stats.Collector
	// MaxDepth bounds the length of enumerated rule strings; 0 means
	// DistinctConstants+1.
	MaxDepth int
	// MaxWork bounds the total bindings materialized across strings; 0
	// means 1<<20. On cyclic data the string count grows exponentially
	// with depth, so this budget usually trips first; both bounds report
	// ErrDiverged.
	MaxWork int
	// Analysis supplies a precomputed separability analysis.
	Analysis *core.Analysis
	// Budget, when non-nil, is checked per rule string and at
	// join-inner-loop granularity; exceeding it aborts with a
	// *budget.ResourceError.
	Budget *budget.Budget
}

// Answer evaluates the selection query q with the Henschen-Naqvi iterative
// method. When it terminates, the result matches semi-naive evaluation.
func Answer(prog *ast.Program, db *database.Database, q ast.Atom, opts Options) (_ *rel.Relation, err error) {
	defer budget.Guard(&err)
	a := opts.Analysis
	if a == nil {
		var err error
		a, err = core.Analyze(prog, q.Pred)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
		}
	}
	sel, err := a.Classify(q)
	if err != nil {
		return nil, err
	}
	if sel.Kind != core.SelFullClass && sel.Kind != core.SelPers {
		return nil, fmt.Errorf("%w: query is %s", ErrUnsupported, sel.Kind)
	}

	base, err := core.MaterializeSupport(prog, db, q.Pred, eval.Options{Collector: opts.Collector, Budget: opts.Budget})
	if err != nil {
		return nil, err
	}
	intern := base.Syms.Intern
	src := conj.DBSource(base.Relation)

	maxDepth := opts.MaxDepth
	if maxDepth == 0 {
		maxDepth = base.DistinctConstants() + 1
	}
	maxWork := opts.MaxWork
	if maxWork == 0 {
		maxWork = 1 << 20
	}

	var driverCols []int
	driver := -1
	if sel.Kind == core.SelFullClass {
		driver = sel.Driver
		driverCols = a.Classes[driver].Cols
	} else {
		driverCols = sel.PersPos
	}
	seed := make(rel.Tuple, len(driverCols))
	for i, p := range driverCols {
		seed[i] = intern(q.Args[p].Name)
	}

	var ruleTrans []*conj.TransitionRunner
	if driver >= 0 {
		cls := &a.Classes[driver]
		for _, r := range cls.Rules {
			tr, err := conj.NewTransition(r.Conj, cls.HeadVars, r.BodyVars, intern)
			if err != nil {
				return nil, err
			}
			tr.SetTick(opts.Budget.TickFunc())
			ruleTrans = append(ruleTrans, tr.NewRunner(src))
		}
	}

	// Output side setup shared by all strings.
	var outCols []int
	inDriver := make(map[int]bool)
	for _, c := range driverCols {
		inDriver[c] = true
	}
	for c := 0; c < a.Arity; c++ {
		if !inDriver[c] {
			outCols = append(outCols, c)
		}
	}
	headAt := func(cols []int) []string {
		vs := make([]string, len(cols))
		for i, c := range cols {
			vs[i] = ast.CanonicalHeadVar(c)
		}
		return vs
	}
	var exits []*conj.TransitionRunner
	for _, ex := range a.Exit {
		tr, err := conj.NewTransition(ex.Body, headAt(driverCols), headAt(outCols), intern)
		if err != nil {
			return nil, err
		}
		tr.SetTick(opts.Budget.TickFunc())
		exits = append(exits, tr.NewRunner(src))
	}
	type p2trans struct {
		tr     *conj.TransitionRunner
		colIdx []int
	}
	outIdx := make(map[int]int)
	for i, c := range outCols {
		outIdx[c] = i
	}
	var p2 []p2trans
	for ci := range a.Classes {
		if ci == driver {
			continue
		}
		cls := &a.Classes[ci]
		colIdx := make([]int, len(cls.Cols))
		for i, c := range cls.Cols {
			colIdx[i] = outIdx[c]
		}
		for _, r := range cls.Rules {
			tr, err := conj.NewTransition(r.Conj, r.BodyVars, cls.HeadVars, intern)
			if err != nil {
				return nil, err
			}
			tr.SetTick(opts.Budget.TickFunc())
			p2 = append(p2, p2trans{tr: tr.NewRunner(src), colIdx: colIdx})
		}
	}

	sink := eval.NewAnswerSink(q, base.Syms)
	full := make(rel.Tuple, a.Arity)
	for i, c := range driverCols {
		full[c] = seed[i]
	}

	// answerString computes the answers contributed by one rule string's
	// binding set: exit rules, then the remaining classes to a per-string
	// fixpoint.
	strings, bindingsTotal := 0, 0
	rowBuf := make(rel.Tuple, len(outCols))
	classVals := make(rel.Tuple, 0, len(outCols))
	answerString := func(bindings *rel.Relation) {
		seen := rel.New(len(outCols))
		for _, ex := range exits {
			for _, b := range bindings.Rows() {
				ex.Apply(b, func(out rel.Tuple) {
					seen.Insert(out)
				})
			}
		}
		opts.Budget.AddDerived(seen.Len(), len(outCols))
		// Per-string fixpoint: each round streams its emissions into seen
		// through a round sink, and the next carry is the window of rows
		// the round appended.
		carry := seen.Window(0, seen.Len())
		for !carry.Empty() && len(p2) > 0 {
			opts.Budget.Round()
			sink := eval.NewRoundSink(seen, false)
			for i := range carry.Len() {
				tup := carry.Row(i)
				for pi := range p2 {
					pt := &p2[pi]
					// A rule's transition rewrites only its class's
					// columns: take the carried tuple once per rule and
					// overlay each emission onto it.
					copy(rowBuf, tup)
					classVals = classVals[:0]
					for _, j := range pt.colIdx {
						classVals = append(classVals, tup[j])
					}
					pt.tr.Apply(classVals, func(out rel.Tuple) {
						for k, j := range pt.colIdx {
							rowBuf[j] = out[k]
						}
						sink.Add(rowBuf)
					})
				}
			}
			carry = sink.Delta()
			opts.Budget.AddDerived(carry.Len(), len(outCols))
		}
		bindingsTotal += seen.Len()
		for _, tup := range seen.Rows() {
			for i, c := range outCols {
				full[c] = tup[i]
			}
			sink.Add(full)
		}
	}

	// Breadth-first enumeration of rule strings over the driver class.
	type stringState struct {
		depth    int
		bindings *rel.Relation
	}
	seedRel := rel.New(len(driverCols))
	seedRel.Insert(seed)
	frontier := []stringState{{depth: 0, bindings: seedRel}}
	for len(frontier) > 0 {
		opts.Budget.Round()
		st := frontier[0]
		frontier = frontier[1:]
		if st.depth > maxDepth {
			return nil, fmt.Errorf("%w (depth %d)", ErrDiverged, st.depth)
		}
		strings++
		bindingsTotal += st.bindings.Len()
		answerString(st.bindings)
		for _, tr := range ruleTrans {
			child := rel.New(len(driverCols))
			for _, b := range st.bindings.Rows() {
				tr.Apply(b, func(out rel.Tuple) {
					child.Insert(out)
				})
			}
			if !child.Empty() {
				opts.Budget.AddDerived(child.Len(), len(driverCols))
				frontier = append(frontier, stringState{depth: st.depth + 1, bindings: child})
			}
		}
		opts.Collector.Observe("hn_strings", strings)
		opts.Collector.Observe("hn_bindings", bindingsTotal)
		if strings+bindingsTotal > maxWork {
			return nil, fmt.Errorf("%w (work exceeded %d)", ErrDiverged, maxWork)
		}
	}
	opts.Collector.AddIteration()
	opts.Collector.Observe("ans", sink.Result().Len())
	return sink.Result(), nil
}
