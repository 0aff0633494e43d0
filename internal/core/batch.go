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
)

// AnswerBatch evaluates many selection queries of one form — same
// predicate, constants at the same positions — in a single seeded run of
// the Figure 2 schema, and returns one answer relation per query, aligned
// with qs. Each distinct seed-constant vector gets one seed index, which
// with two or more vectors rides as the first tag column through both
// phases, so every carry loop, every class closure, and the support
// fixpoint run once for the whole batch; answers are routed out by tag at
// delivery to every query naming that vector. A single vector, however
// often the batch repeats it, carries no seed index, so its relations are
// exactly those of Figure 2. Answers are identical to len(qs) separate
// Answer calls.
func AnswerBatch(prog *ast.Program, db *database.Database, qs []ast.Atom, opts EvalOptions) (_ []*rel.Relation, err error) {
	defer budget.Guard(&err)
	if len(qs) == 0 {
		return nil, nil
	}
	a := opts.Analysis
	if a == nil {
		var err error
		a, err = AnalyzeOpts(prog, qs[0].Pred, Options{AllowDisconnected: opts.AllowDisconnected})
		if err != nil {
			return nil, err
		}
	}
	sel, err := a.Classify(qs[0])
	if err != nil {
		return nil, err
	}
	if sel.Kind == SelNone {
		return nil, ErrNoSelection
	}
	for _, q := range qs[1:] {
		si, err := a.Classify(q)
		if err != nil {
			return nil, err
		}
		if q.Pred != qs[0].Pred || !equalInts(si.ConstPos, sel.ConstPos) {
			return nil, fmt.Errorf("core: batch mixes query forms: %s vs %s", q, qs[0])
		}
	}

	// Materialize the IDB predicates t's definition depends on (they do
	// not depend back on t, so a single pass suffices); they then act as
	// base relations for the schema. Rules for predicates t does not use
	// are irrelevant to the query and skipped.
	base, err := MaterializeSupport(prog, db, qs[0].Pred, eval.Options{
		Collector: opts.Collector,
		Budget:    opts.Budget,
	})
	if err != nil {
		return nil, err
	}

	e := newEvaluator(a, base, qs[0].Pred, opts)
	sinks := make([]*eval.AnswerSink, len(qs))
	for i, q := range qs {
		sinks[i] = eval.NewAnswerSink(q, base.Syms)
	}

	switch sel.Kind {
	case SelPers:
		err = e.batchFull(qs, sel.PersPos, -1, sinks)
	case SelFullClass:
		err = e.batchFull(qs, a.Classes[sel.Driver].Cols, sel.Driver, sinks)
	case SelPartial:
		err = e.batchPartial(qs, sel, sinks)
	}
	if err != nil {
		return nil, err
	}

	out := make([]*rel.Relation, len(qs))
	ansLen := 0
	for i, s := range sinks {
		out[i] = s.Result()
		ansLen += out[i].Len()
	}
	opts.Collector.Observe("ans", ansLen)
	return out, nil
}

// ErrNotFullSelection reports a query AnswerSeeded cannot run: its
// predicate is not a separable recursion, or its selection is not full.
var ErrNotFullSelection = errors.New("core: not a full selection on a separable recursion")

// SeedFunc builds the seen_1 an AnswerSeeded run starts the second loop
// of Figure 2 from, in place of the first: rows of tagW tag columns
// followed by one value per driver column. driver is the driver class, nil
// when the selection binds persistent columns only; db is the database
// with the query's support materialized; seed is the query's constants at
// the driver columns.
type SeedFunc func(driver *Class, db *database.Database, seed rel.Tuple) (seen1 *rel.Relation, tagW int, err error)

// AnswerSeeded answers the full selection q by lines 8-14 of Figure 2 over
// the seen_1 that seeds builds. Rows with different tags are answered
// apart, as a batch's queries are (AnswerBatch runs the same code with the
// seed index as the tag), and their answers unite in the result. It
// returns the answers and the size of the tagged seen_2. Queries outside
// its scope fail with ErrNotFullSelection.
func AnswerSeeded(prog *ast.Program, db *database.Database, q ast.Atom, opts EvalOptions, seeds SeedFunc) (_ *rel.Relation, seen2 int, err error) {
	defer budget.Guard(&err)
	a := opts.Analysis
	if a == nil {
		if a, err = AnalyzeOpts(prog, q.Pred, Options{AllowDisconnected: opts.AllowDisconnected}); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrNotFullSelection, err)
		}
	}
	sel, err := a.Classify(q)
	if err != nil {
		return nil, 0, err
	}
	var driver *Class
	driverCols := sel.PersPos
	switch sel.Kind {
	case SelFullClass:
		driver = &a.Classes[sel.Driver]
		driverCols = driver.Cols
	case SelPers:
	default:
		return nil, 0, fmt.Errorf("%w: query is %s", ErrNotFullSelection, sel.Kind)
	}
	base, err := MaterializeSupport(prog, db, q.Pred, eval.Options{Collector: opts.Collector, Budget: opts.Budget})
	if err != nil {
		return nil, 0, err
	}
	seed := constsAt(q, driverCols, base.Syms.Intern)
	seen1, tagW, err := seeds(driver, base, seed)
	if err != nil {
		return nil, 0, err
	}
	e := newEvaluator(a, base, q.Pred, opts)
	res, outCols, err := e.run(driverCols, -1, sel.Driver, seen1, tagW)
	if err != nil {
		return nil, 0, err
	}
	sink := eval.NewAnswerSink(q, base.Syms)
	e.deliverBatch(res, tagW, nil, driverCols, []rel.Tuple{seed}, outCols, [][]*eval.AnswerSink{{sink}})
	opts.Collector.Observe("ans", sink.Result().Len())
	return sink.Result(), res.Len(), nil
}

// seedGroups gives each distinct vector of the queries' constants at cols
// one seed index: vecs[i] is seed i's vector and groups[i] the sinks of the
// queries that name it. It sets the seed-index tag width: 1 when the batch
// has two or more distinct vectors, else 0.
func (e *evaluator) seedGroups(qs []ast.Atom, cols []int, sinks []*eval.AnswerSink) (vecs []rel.Tuple, groups [][]*eval.AnswerSink) {
	index := make(map[string]int, len(qs))
	for qi, q := range qs {
		v := constsAt(q, cols, e.db.Syms.Intern)
		key := plancache.EncodeStart(v)
		i, ok := index[key]
		if !ok {
			i = len(vecs)
			index[key] = i
			vecs = append(vecs, v)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], sinks[qi])
	}
	e.seedW = 0
	if len(vecs) > 1 {
		e.seedW = 1
	}
	return vecs, groups
}

// seedRow returns seed i's row: vals itself without a seed index, else the
// seed index and vals written into buf. Callers insert it, which copies.
func (e *evaluator) seedRow(buf rel.Tuple, i int, vals rel.Tuple) rel.Tuple {
	if e.seedW == 0 {
		return vals
	}
	return append(append(buf[:0], rel.Value(i)), vals...)
}

// batchFull runs the full-selection schema (SelPers or SelFullClass) for
// every query at once: seeds are (seed index, consts...) rows, driver is
// the persistent columns or the driver class's columns.
func (e *evaluator) batchFull(qs []ast.Atom, driverCols []int, driver int, sinks []*eval.AnswerSink) error {
	driverVals, groups := e.seedGroups(qs, driverCols, sinks)
	seeds := rel.New(e.seedW + len(driverCols))
	var row rel.Tuple
	for i, v := range driverVals {
		row = e.seedRow(row, i, v)
		seeds.Insert(row)
	}
	res, outCols, err := e.run(driverCols, driver, driver, seeds, e.seedW)
	if err != nil {
		return err
	}
	e.deliverBatch(res, e.seedW, nil, driverCols, driverVals, outCols, groups)
	return nil
}

// batchPartial evaluates a partial selection as the union of full
// selections of Lemma 2.1, for every query at once: the t_part branch (no
// driver-class applications; the bound columns act as persistent) plus,
// for every rule of the driver class, a t_full branch seeded through that
// rule's nonrecursive conjunction, with the unbound driver-class head
// columns carried as tags after the seed index.
func (e *evaluator) batchPartial(qs []ast.Atom, sel Selection, sinks []*eval.AnswerSink) error {
	intern := e.db.Syms.Intern
	src := conj.DBSource(e.db.Relation)
	cls := &e.a.Classes[sel.Driver]
	isConst := make(map[int]bool)
	for _, p := range sel.ConstPos {
		isConst[p] = true
	}
	var boundCols, freeCols []int
	for _, p := range cls.Cols {
		if isConst[p] {
			boundCols = append(boundCols, p)
		} else {
			freeCols = append(freeCols, p)
		}
	}

	// Branch A (t_part): zero applications of the driver class.
	boundVals, groups := e.seedGroups(qs, boundCols, sinks)
	seedsA := rel.New(e.seedW + len(boundCols))
	var row rel.Tuple
	for i, v := range boundVals {
		row = e.seedRow(row, i, v)
		seedsA.Insert(row)
	}
	resA, outColsA, err := e.run(boundCols, -1, sel.Driver, seedsA, e.seedW)
	if err != nil {
		return err
	}
	e.deliverBatch(resA, e.seedW, nil, boundCols, boundVals, outColsA, groups)

	// Branch B (t_full): at least one application of the driver class.
	// The first application is made here, through each rule's a_1j, with
	// the bound head columns fixed to each seed's constants; the resulting
	// unbound head-column values become the tag, and the body-column
	// values seed carry_1.
	tagW := e.seedW + len(freeCols)
	seedsB := rel.New(tagW + len(cls.Cols))
	boundHead := headVarsAt(boundCols)
	freeHead := headVarsAt(freeCols)
	for _, r := range cls.Rules {
		outVars := append(append([]string{}, freeHead...), r.BodyVars...)
		tr, err := conj.NewTransition(r.Conj, boundHead, outVars, intern)
		if err != nil {
			return fmt.Errorf("core: rule %s: %w", r.Rule, err)
		}
		tr.SetTick(e.bud.TickFunc())
		run := tr.NewRunner(src)
		for i, v := range boundVals {
			run.Apply(v, func(out rel.Tuple) {
				row = e.seedRow(row, i, out)
				seedsB.Insert(row)
			})
		}
	}
	resB, outColsB, err := e.run(cls.Cols, sel.Driver, sel.Driver, seedsB, tagW)
	if err != nil {
		return err
	}
	// Driver values: the seed's constants at the bound positions; the free
	// positions are placeholders overwritten by the tag in deliverBatch.
	driverVals := make([]rel.Tuple, len(boundVals))
	for i, v := range boundVals {
		dv := make(rel.Tuple, len(cls.Cols))
		b := 0
		for j, p := range cls.Cols {
			if isConst[p] {
				dv[j] = v[b]
				b++
			}
		}
		driverVals[i] = dv
	}
	e.deliverBatch(resB, tagW, freeCols, cls.Cols, driverVals, outColsB, groups)
	return nil
}

// deliverBatch assembles full-arity tuples from a run's result and routes
// each to the sinks of its seed. Result rows are tagW tag columns — the
// seed index (batches of several seeds only) first, one value per tagCols
// last — then the output columns; driverCols take the seed's driverVals,
// with free positions, if any, overwritten by the tag.
func (e *evaluator) deliverBatch(res *rel.Relation, tagW int, tagCols []int, driverCols []int, driverVals []rel.Tuple, outCols []int, groups [][]*eval.AnswerSink) {
	tagAt := tagW - len(tagCols)
	full := make(rel.Tuple, e.a.Arity)
	for k := range res.Len() {
		t := res.Row(k)
		i := 0
		if e.seedW > 0 {
			i = int(t[0])
		}
		for j, p := range driverCols {
			full[p] = driverVals[i][j]
		}
		for j, p := range tagCols {
			full[p] = t[tagAt+j]
		}
		for j, p := range outCols {
			full[p] = t[tagW+j]
		}
		for _, s := range groups[i] {
			s.Add(full)
		}
	}
}
