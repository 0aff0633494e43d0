// Package counting implements the Generalized Counting Method
// [BMSU86, BR87, SZ86] for selection queries on linear recursions, in the
// form the paper analyses in §4:
//
//	count(1, 1, 1, tom).
//	count(i+1, 2j, 2k, W)   :- count(i, j, k, X) & friend(X, W).
//	count(i+1, 2j+1, 2k, W) :- count(i, j, k, X) & idol(X, W).
//
// The count phase pushes the selection constant down through the recursive
// rules that move the bound columns, tagging every reached binding with its
// level and its derivation-path index; with p rules the path index
// distinguishes up to p^i derivations at level i, which is the Ω(pⁿ)
// blowup of Lemma 4.3. The answer phase seeds from the exit rules at each
// recorded (level, path) and plays the remaining rules per tag.
//
// The method is scoped as in the paper's comparison: the query must be a
// full selection on a separable-shaped linear recursion (the count phase
// needs the bound columns to propagate to themselves), and it diverges on
// data cyclic in the driving relations — Options.MaxLevels turns that into
// ErrDiverged.
package counting

import (
	"errors"
	"fmt"
	"math"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// ErrDiverged reports that the count phase exceeded MaxLevels, which on
// cyclic data it will: the Generalized Counting Method does not terminate
// there (§1, [HN84] shares the defect).
var ErrDiverged = errors.New("counting: count phase exceeded its level/work bound (cyclic data?)")

// ErrPathOverflow reports a derivation-path index exceeding 64 bits — the
// exponential blowup the method is being measured for, hit concretely.
var ErrPathOverflow = errors.New("counting: derivation-path index overflowed 64 bits")

// ErrUnsupported reports a query outside the method's scope here (partial
// selections and non-separable recursions).
var ErrUnsupported = errors.New("counting: unsupported query for the counting method (needs a full selection on a separable-shaped recursion)")

// Options configure Answer.
type Options struct {
	// Collector receives the sizes of count and the per-tag answer
	// relation.
	Collector *stats.Collector
	// MaxLevels bounds the count phase; 0 means DistinctConstants+1,
	// the longest simple path any acyclic chase can have.
	MaxLevels int
	// MaxFacts bounds the total number of count and answer facts
	// materialized; 0 means 1<<20. On cyclic data the per-path blowup is
	// exponential per level, so the fact budget usually trips long before
	// the level bound; both report ErrDiverged.
	MaxFacts int
	// Analysis supplies a precomputed separability analysis.
	Analysis *core.Analysis
	// Budget, when non-nil, is checked at every count/answer level and at
	// join-inner-loop granularity; exceeding it aborts with a
	// *budget.ResourceError. On the paper's adversarial inputs the count
	// phase is exactly where the Ω(2ⁿ) blowup materializes, so a tuple
	// budget usually trips here first.
	Budget *budget.Budget
}

// countKey identifies one count fact (level, path, bound values).
type countKey struct {
	level int
	path  uint64
	vals  string // encoded driver-column values
}

type countFact struct {
	level int
	path  uint64
	vals  rel.Tuple
}

func encodeVals(t rel.Tuple) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// Answer evaluates the selection query q with the Generalized Counting
// Method. The result matches core.Answer and semi-naive evaluation whenever
// the method terminates.
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

	// Materialize the IDB predicates the definition depends on (as in
	// core.Answer).
	base, err := core.MaterializeSupport(prog, db, q.Pred, eval.Options{Collector: opts.Collector, Budget: opts.Budget})
	if err != nil {
		return nil, err
	}
	intern := base.Syms.Intern
	src := conj.DBSource(base.Relation)

	maxLevels := opts.MaxLevels
	if maxLevels == 0 {
		maxLevels = base.DistinctConstants() + 1
	}
	maxFacts := opts.MaxFacts
	if maxFacts == 0 {
		maxFacts = 1 << 20
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

	// Count phase.
	var ruleTrans []*conj.Transition
	if driver >= 0 {
		cls := &a.Classes[driver]
		for _, r := range cls.Rules {
			tr, err := conj.NewTransition(r.Conj, cls.HeadVars, r.BodyVars, intern)
			if err != nil {
				return nil, err
			}
			tr.SetTick(opts.Budget.TickFunc())
			ruleTrans = append(ruleTrans, tr)
		}
	}
	p := uint64(len(ruleTrans))
	seen := map[countKey]bool{}
	var all []countFact
	frontier := []countFact{{level: 0, path: 0, vals: seed}}
	seen[countKey{0, 0, encodeVals(seed)}] = true
	all = append(all, frontier...)
	opts.Collector.Observe("count", len(all))
	for level := 0; len(frontier) > 0 && len(ruleTrans) > 0; level++ {
		if level >= maxLevels {
			return nil, fmt.Errorf("%w (level %d)", ErrDiverged, level)
		}
		opts.Budget.Round()
		opts.Collector.AddIteration()
		var next []countFact
		for _, f := range frontier {
			for j, tr := range ruleTrans {
				if f.path > (math.MaxUint64-uint64(j)-1)/(p+1) {
					return nil, ErrPathOverflow
				}
				newPath := f.path*(p+1) + uint64(j) + 1
				tr.Apply(src, f.vals, func(out rel.Tuple) {
					k := countKey{f.level + 1, newPath, encodeVals(out)}
					if seen[k] {
						return
					}
					seen[k] = true
					nf := countFact{level: f.level + 1, path: newPath, vals: out.Clone()}
					next = append(next, nf)
					all = append(all, nf)
				})
			}
		}
		frontier = next
		opts.Collector.Observe("count", len(all))
		opts.Collector.AddInserted(len(next))
		opts.Budget.AddDerived(len(next), len(driverCols)+2)
		if len(all) > maxFacts {
			return nil, fmt.Errorf("%w (count facts exceeded %d)", ErrDiverged, maxFacts)
		}
	}

	// Answer phase: seed from the exit rules at every count fact, keeping
	// the (level, path) tag, then play the remaining classes per tag.
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

	type ansKey struct {
		level int
		path  uint64
		vals  string
	}
	type ansFact struct {
		level int
		path  uint64
		vals  rel.Tuple
	}
	ansSeen := map[ansKey]bool{}
	var ansAll, ansFrontier []ansFact
	for _, ex := range a.Exit {
		tr, err := conj.NewTransition(ex.Body, headAt(driverCols), headAt(outCols), intern)
		if err != nil {
			return nil, err
		}
		tr.SetTick(opts.Budget.TickFunc())
		for _, f := range all {
			tr.Apply(src, f.vals, func(out rel.Tuple) {
				k := ansKey{f.level, f.path, encodeVals(out)}
				if ansSeen[k] {
					return
				}
				ansSeen[k] = true
				af := ansFact{level: f.level, path: f.path, vals: out.Clone()}
				ansFrontier = append(ansFrontier, af)
				ansAll = append(ansAll, af)
			})
		}
	}
	opts.Collector.Observe("count_ans", len(ansAll))
	opts.Budget.AddDerived(len(ansAll), len(outCols)+2)

	type p2trans struct {
		tr     *conj.Transition
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
			p2 = append(p2, p2trans{tr: tr, colIdx: colIdx})
		}
	}
	for len(ansFrontier) > 0 && len(p2) > 0 {
		opts.Budget.Round()
		opts.Collector.AddIteration()
		var next []ansFact
		classVals := make(rel.Tuple, 0, 8)
		for _, f := range ansFrontier {
			for i := range p2 {
				pt := &p2[i]
				classVals = classVals[:0]
				for _, j := range pt.colIdx {
					classVals = append(classVals, f.vals[j])
				}
				pt.tr.Apply(src, classVals, func(out rel.Tuple) {
					row := f.vals.Clone()
					for k, j := range pt.colIdx {
						row[j] = out[k]
					}
					key := ansKey{f.level, f.path, encodeVals(row)}
					if ansSeen[key] {
						return
					}
					ansSeen[key] = true
					af := ansFact{level: f.level, path: f.path, vals: row}
					next = append(next, af)
					ansAll = append(ansAll, af)
				})
			}
		}
		ansFrontier = next
		opts.Collector.Observe("count_ans", len(ansAll))
		opts.Collector.AddInserted(len(next))
		opts.Budget.AddDerived(len(next), len(outCols)+2)
		if len(ansAll) > maxFacts {
			return nil, fmt.Errorf("%w (answer facts exceeded %d)", ErrDiverged, maxFacts)
		}
	}

	// Deliver: assemble full tuples and filter/project per the query.
	sink := eval.NewAnswerSink(q, base.Syms)
	full := make(rel.Tuple, a.Arity)
	for i, c := range driverCols {
		full[c] = seed[i]
	}
	for _, f := range ansAll {
		for i, c := range outCols {
			full[c] = f.vals[i]
		}
		sink.Add(full)
	}
	opts.Collector.Observe("ans", sink.Result().Len())
	return sink.Result(), nil
}
