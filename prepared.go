package sepdl

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/magic"
	"sepdl/internal/parser"
	"sepdl/internal/plancache"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// Prepared is a query form compiled once and executed many times with
// fresh selection constants — the paper's compile-once/execute-many
// promise as an API. A Prepared is an immutable handle, safe for
// concurrent use; each Run evaluates against the snapshot current at that
// call, so a Prepared never serves stale answers after writes (the caches
// underneath are revision-keyed and simply recompile or refill).
type Prepared struct {
	e        *Engine
	form     ast.Atom
	text     string
	paramPos []int
	cfg      queryConfig
}

// Prepare parses queryForm once and returns a handle that binds fresh
// constants into the form's cached plan per execution. The constants in
// queryForm are placeholders: their positions become Run's parameters, in
// argument order, and their values only warm the plan cache. For example
// Prepare("buys(tom, Y)?") takes one constant per Run, at position 0.
// Options are captured now and apply to every Run and RunBatch.
func (e *Engine) Prepare(queryForm string, opts ...QueryOption) (*Prepared, error) {
	cfg := e.newQueryConfig(opts)
	if err := checkStrategy(cfg.strategy); err != nil {
		return nil, err
	}
	q, err := parser.Query(queryForm)
	if err != nil {
		return nil, err
	}
	var pos []int
	for i, t := range q.Args {
		if !t.IsVar() {
			pos = append(pos, i)
		}
	}
	p := &Prepared{e: e, form: q, text: queryForm, paramPos: pos, cfg: cfg}
	// Warm the current revision's plan cache so the first Run is already a
	// hit; later program revisions recompile on first use automatically.
	st := e.progState()
	if st.prog.IDBPreds()[q.Pred] && !e.planCacheOff {
		st.cachedPlan(q, cfg)
	}
	return p, nil
}

// NumParams returns how many constants each Run takes.
func (p *Prepared) NumParams() int { return len(p.paramPos) }

// bind substitutes consts into the form's parameter positions.
func (p *Prepared) bind(consts []string) (ast.Atom, error) {
	if len(consts) != len(p.paramPos) {
		return ast.Atom{}, fmt.Errorf("sepdl: prepared query %q takes %d constants, got %d", p.text, len(p.paramPos), len(consts))
	}
	args := make([]ast.Term, len(p.form.Args))
	copy(args, p.form.Args)
	for i, pos := range p.paramPos {
		args[pos] = ast.C(consts[i])
	}
	return ast.Atom{Pred: p.form.Pred, Args: args}, nil
}

// Run evaluates the prepared form with the given constants, one per
// placeholder in argument order. Semantics (snapshot isolation, admission,
// budgets, fallback) are exactly Query's; only the plan compilation is
// skipped. Like Query, it runs the batch pipeline with a batch of one.
func (p *Prepared) Run(ctx context.Context, consts ...string) (*Result, error) {
	q, err := p.bind(consts)
	if err != nil {
		return nil, err
	}
	return p.e.queryAtom(ctx, q, p.cfg)
}

// RunBatch evaluates one constant vector per element of constSets in a
// single seeded fixpoint (see QueryBatch), returning one Result per
// vector, aligned with constSets.
func (p *Prepared) RunBatch(ctx context.Context, constSets ...[]string) ([]*Result, error) {
	qs := make([]ast.Atom, len(constSets))
	for i, cs := range constSets {
		q, err := p.bind(cs)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return p.e.queryBatch(ctx, qs, p.cfg, true)
}

// QueryBatch evaluates many queries of one form — same predicate,
// constants at the same positions — in a single seeded fixpoint, sharing
// one snapshot, one admission slot, and one budget across the batch:
// multi-seed driver phases for the Separable strategy, multi-seed magic
// facts for the Magic strategies, one shared fixpoint view for
// SemiNaive/Naive. Results align with queries, and each answer set is
// identical to what Query would return for that element. Stats on every
// Result report the whole batch's work, with BatchSize = len(queries).
// Query is the same pipeline with a batch of one.
func (e *Engine) QueryBatch(ctx context.Context, queries []string, opts ...QueryOption) ([]*Result, error) {
	cfg := e.newQueryConfig(opts)
	if err := checkStrategy(cfg.strategy); err != nil {
		return nil, err
	}
	qs := make([]ast.Atom, len(queries))
	for i, s := range queries {
		q, err := parser.Query(s)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return e.queryBatch(ctx, qs, cfg, true)
}

// queryBatch is the one evaluation pipeline under every query entry
// point: one admission slot, one snapshot, one budget, one plan for the
// whole batch, then strategy dispatch and fallback. batch marks the
// QueryBatch/RunBatch entry points, the only ones EngineStats counts as
// batches; a single query is a batch of one.
func (e *Engine) queryBatch(ctx context.Context, qs []ast.Atom, cfg queryConfig, batch bool) ([]*Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	for _, q := range qs[1:] {
		if q.Pred != qs[0].Pred || formMask(q) != formMask(qs[0]) {
			return nil, fmt.Errorf("sepdl: batch mixes query forms: %s vs %s", q, qs[0])
		}
	}
	if cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
		defer cancel()
	}
	release, err := e.admit(ctx)
	if err != nil {
		e.counters.admitRejected(err)
		return nil, err
	}
	defer release()
	e.counters.queries.Add(1)
	if batch {
		e.counters.batches.Add(1)
		e.counters.batchQueries.Add(uint64(len(qs)))
	}
	e.counters.inFlight.Add(1)
	defer e.counters.inFlight.Add(-1)
	st, db, dbRev := e.snapshot()

	bud := cfg.tracker(ctx)
	if err := bud.Err(); err != nil {
		return nil, e.counters.evalFailed(err) // context already expired / canceled
	}
	c := stats.New()
	start := time.Now()

	// Every element reports the whole evaluation's work; the engine
	// counters record its outcome once.
	results := func(strategy, fellFrom Strategy, hit bool, anss []*rel.Relation, col *stats.Collector) []*Result {
		out := make([]*Result, len(qs))
		for i := range qs {
			stt := Stats{Strategy: strategy, FallbackFrom: fellFrom, PlanCacheHit: hit,
				BatchSize: len(qs), Duration: time.Since(start)}
			out[i] = result(db, qs[i], anss[i], stt, col)
		}
		e.counters.evalOK(out[0])
		return out
	}

	if !st.prog.IDBPreds()[qs[0].Pred] {
		// EDB query: answer directly from the base relations.
		anss := make([]*rel.Relation, len(qs))
		for i, q := range qs {
			ans, err := eval.Answer(db, q)
			if err != nil {
				return nil, e.counters.evalFailed(err)
			}
			anss[i] = ans
		}
		return results(cfg.strategy, "", false, anss, c), nil
	}

	pl, hit := e.planFor(st, qs[0], cfg)
	e.counters.planLookup(hit)
	strategy := pl.strategy
	bud.SetStrategy(string(strategy))
	if e.closures != nil {
		cfg.closures = e.closures
		cfg.scope = plancache.Scope{ProgRev: st.rev, DBRev: dbRev}
	}

	anss, err := runStrategyBatch(st, db, qs, pl, cfg, c, bud)
	fellFrom := Strategy("")
	if err != nil && cfg.fallback && fallbackEligible(strategy, err) {
		fbBud := cfg.tracker(ctx)
		fbBud.SetStrategy(string(SemiNaive))
		fbCol := stats.New()
		fbAnss, fbErr := runStrategyBatch(st, db, qs, &plan{strategy: SemiNaive}, cfg, fbCol, fbBud)
		if fbErr == nil {
			fellFrom, strategy, anss, err, c = strategy, SemiNaive, fbAnss, nil, fbCol
		} else {
			err = fmt.Errorf("%w (semi-naive fallback also failed: %v)", err, fbErr)
		}
	}
	if err != nil {
		return nil, e.counters.evalFailed(err)
	}
	return results(strategy, fellFrom, hit, anss, c), nil
}

// runStrategyBatch dispatches one evaluation attempt against an immutable
// program revision and database snapshot. Every served strategy runs the
// whole batch in one shared fixpoint. It carries the last-resort panic
// recovery every attempt needs: an internal panic must not take down the
// caller. A budget abort that escaped a path without its own Guard still
// surfaces as its typed error; anything else is reported with the strategy
// and query for the bug report.
func runStrategyBatch(st *progState, db *database.Database, qs []ast.Atom, pl *plan, cfg queryConfig, c *stats.Collector, bud *budget.Budget) (anss []*rel.Relation, err error) {
	strategy := pl.strategy
	defer func() {
		if r := recover(); r != nil {
			anss = nil
			if aerr, ok := budget.AsAbort(r); ok {
				err = aerr
				return
			}
			what := strconv.Quote(qs[0].String() + "?")
			if len(qs) > 1 {
				what += fmt.Sprintf(" and %d more", len(qs)-1)
			}
			err = fmt.Errorf("%w evaluating %s with strategy %s: %v", ErrInternal, what, strategy, r)
		}
	}()
	if testHookEval != nil {
		testHookEval()
	}

	switch strategy {
	case Separable:
		return core.AnswerBatch(st.prog, db, qs, core.EvalOptions{
			Collector:         c,
			Analysis:          pl.analysis,
			AllowDisconnected: cfg.allowDisconnected,
			Budget:            bud,
			Closures:          cfg.closures,
			CacheScope:        cfg.scope,
		})
	case MagicSets, MagicSetsSup:
		return magic.AnswerBatch(st.prog, db, qs, magic.Options{
			Collector:     c,
			Supplementary: strategy == MagicSetsSup,
			Budget:        bud,
			Template:      pl.template,
		})
	case SemiNaive, Naive:
		view, err := eval.Run(st.prog, db, eval.Options{
			Collector: c,
			Naive:     strategy == Naive,
			Budget:    bud,
		})
		if err != nil {
			return nil, err
		}
		anss = make([]*rel.Relation, len(qs))
		for i, q := range qs {
			if anss[i], err = eval.Answer(view, q); err != nil {
				return nil, err
			}
		}
		return anss, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownStrategy, strategy)
	}
}
