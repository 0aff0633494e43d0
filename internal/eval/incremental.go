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

// Materialized is an incrementally maintained fixpoint: the IDB relations
// of a positive program, kept up to date as new base facts arrive. Each
// insertion is propagated semi-naively (the new fact is a delta), so
// maintenance cost is proportional to the new derivations, not to the
// database.
//
// Insertions propagate directly; deletions are handled by DeleteFact's
// delete-and-rederive (DRed) pass. Programs with negation are rejected:
// a new fact can retract negation-derived tuples.
type Materialized struct {
	prog  *ast.Program
	view  *database.Database
	total map[string]*rel.Relation
	base  map[string]*rel.Relation // EDB relations, owned by this view
	// occs maps each predicate to the (rule, body position) pairs where it
	// occurs, for delta-driven re-evaluation.
	occs  map[string][]occurrence
	rules []compiledRule
	// support holds, per IDB predicate, one derivability check per rule
	// (used by DeleteFact's re-derivation phase).
	support map[string][]*supportCheck
	col     *stats.Collector
	bud     *budget.Budget
	// broken records a budget abort that interrupted a maintenance pass
	// mid-mutation; the view is then inconsistent and refuses further use.
	broken error
}

type occurrence struct {
	rule int
	atom int
}

// Materialize evaluates prog over db once and returns a maintainable view.
// The EDB relations are deep-copied so later AddFact calls do not mutate
// the caller's database.
func Materialize(prog *ast.Program, db *database.Database, col *stats.Collector) (*Materialized, error) {
	return MaterializeBudget(prog, db, col, nil)
}

// MaterializeBudget is Materialize with a resource budget: the initial
// fixpoint and every later maintenance pass (AddFact propagation,
// DeleteFact's DRed phases) check it at round and join-inner-loop
// granularity. A budget abort during the initial fixpoint leaves the
// caller's database untouched; an abort after a maintenance pass has begun
// mutating marks the view invalid (every later call errors), since a
// half-propagated view would silently return wrong answers.
func MaterializeBudget(prog *ast.Program, db *database.Database, col *stats.Collector, bud *budget.Budget) (*Materialized, error) {
	if prog.HasNegation() {
		return nil, fmt.Errorf("eval: incremental maintenance requires a negation-free program")
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	idb := prog.IDBPreds()

	// Private copies of the EDB relations.
	view := db.ShallowView()
	base := make(map[string]*rel.Relation)
	for _, pred := range db.Preds() {
		if !idb[pred] {
			cp := db.Relation(pred).Clone()
			base[pred] = cp
			view.Set(pred, cp)
		}
	}
	// Initial fixpoint.
	fixed, err := Run(prog, view, Options{Collector: col, Budget: bud})
	if err != nil {
		return nil, err
	}
	m := &Materialized{
		prog:    prog,
		view:    fixed,
		total:   make(map[string]*rel.Relation),
		base:    base,
		occs:    make(map[string][]occurrence),
		support: make(map[string][]*supportCheck),
		col:     col,
		bud:     bud,
	}
	for p := range idb {
		m.total[p] = fixed.Relation(p)
	}
	intern := fixed.Syms.Intern
	for ri, r := range prog.Rules {
		plan, err := conj.Compile(r.Body, nil, intern)
		if err != nil {
			return nil, err
		}
		plan.SetTick(bud.TickFunc())
		proj, err := conj.NewProjector(r.Head, plan, intern)
		if err != nil {
			return nil, err
		}
		m.rules = append(m.rules, compiledRule{rule: r, plan: plan, proj: proj})
		for ai, b := range r.Body {
			m.occs[b.Pred] = append(m.occs[b.Pred], occurrence{rule: ri, atom: ai})
		}
		sc, err := newSupportCheck(r, intern)
		if err != nil {
			return nil, err
		}
		sc.plan.SetTick(bud.TickFunc())
		m.support[r.Head.Pred] = append(m.support[r.Head.Pred], sc)
	}
	return m, nil
}

// Broken reports the budget abort that invalidated the view, if any.
func (m *Materialized) Broken() error { return m.broken }

// Repair rebuilds a broken view's IDB relations from its base relations
// and clears the broken mark, restoring service after a maintenance pass
// was aborted mid-mutation. Base relations always reflect every requested
// mutation by the time a propagation abort can fire (AddFact inserts the
// base tuple before propagating; DeleteFact applies base deletions before
// re-deriving), so the rebuilt fixpoint is exactly the state the
// interrupted pass was converging to. The cumulative budget is reset first
// — the rebuild replaces all previously accounted work — and a rebuild
// that itself aborts leaves the view broken with the new error. Repairing
// an unbroken view is a no-op.
func (m *Materialized) Repair() error {
	if m.broken == nil {
		return nil
	}
	m.bud.Reset()
	base := database.NewShared(m.view.Syms)
	for p, r := range m.base {
		base.Set(p, r)
	}
	fixed, err := Run(m.prog, base, Options{Collector: m.col, Budget: m.bud})
	if err != nil {
		m.broken = fmt.Errorf("eval: view repair failed: %w", err)
		return m.broken
	}
	m.view = fixed
	for p := range m.prog.IDBPreds() {
		m.total[p] = fixed.Relation(p)
	}
	m.broken = nil
	return nil
}

// SnapshotView returns an immutable snapshot of the maintained view, or
// the broken error. Concurrent readers answer queries against snapshots so
// maintenance passes never expose half-updated relations to them.
func (m *Materialized) SnapshotView() (*database.Database, error) {
	if err := m.checkUsable(); err != nil {
		return nil, err
	}
	return m.view.Snapshot(), nil
}

// checkUsable rejects operations on a view a mid-mutation abort corrupted.
func (m *Materialized) checkUsable() error {
	if m.broken != nil {
		return fmt.Errorf("eval: view invalidated by an aborted maintenance pass: %w", m.broken)
	}
	return nil
}

// View returns the maintained database view (base copies + IDB totals).
// Callers must not mutate it directly; use AddFact.
func (m *Materialized) View() *database.Database { return m.view }

// AddFact inserts a base fact and propagates its consequences. Inserting a
// fact for an IDB predicate or an unknown arity is an error. Reports
// whether the fact was new.
func (m *Materialized) AddFact(pred string, args ...string) (bool, error) {
	if err := m.checkUsable(); err != nil {
		return false, err
	}
	if ast.Builtin(pred) {
		return false, fmt.Errorf("eval: %s is a builtin predicate", pred)
	}
	if m.total[pred] != nil {
		return false, fmt.Errorf("eval: %s is an IDB predicate; only base facts can be added", pred)
	}
	t := make(rel.Tuple, len(args))
	for i, a := range args {
		t[i] = m.view.Syms.Intern(a)
	}
	r := m.base[pred]
	if r == nil {
		// A base predicate with no prior facts: create it with the arity
		// the program expects (or this fact's arity if unmentioned).
		arities, err := m.prog.Arities()
		if err != nil {
			return false, err
		}
		want, mentioned := arities[pred]
		if mentioned && want != len(args) {
			return false, fmt.Errorf("eval: %s has arity %d in the program, got %d args", pred, want, len(args))
		}
		r = rel.New(len(args))
		m.base[pred] = r
		m.view.Set(pred, r)
	}
	if r.Arity() != len(t) {
		return false, fmt.Errorf("eval: %s has arity %d, got %d args", pred, r.Arity(), len(t))
	}
	if !r.Insert(t) {
		return false, nil
	}
	delta := rel.New(len(t))
	delta.Insert(t)
	// The base fact is in; from here an abort leaves the IDB relations
	// behind the base relations, so it poisons the view.
	if err := m.mutating(func() { m.propagate(pred, delta) }); err != nil {
		return false, err
	}
	return true, nil
}

// mutating runs a maintenance step that modifies the view, converting a
// budget abort into an error and marking the view invalid (the step may
// have been interrupted between mutations).
func (m *Materialized) mutating(f func()) error {
	err := func() (err error) {
		defer budget.Guard(&err)
		f()
		return nil
	}()
	if err != nil {
		m.broken = err
	}
	return err
}

// propagate pushes a delta for pred through every rule occurrence,
// worklist-style, until no new IDB facts appear. Totals already include
// each delta before its propagation, so derivations combining several new
// facts are found when the later delta is processed.
func (m *Materialized) propagate(pred string, delta *rel.Relation) {
	type work struct {
		pred  string
		delta *rel.Relation
	}
	queue := []work{{pred, delta}}
	frozen := make(map[string]*rel.Relation, len(m.total))
	for len(queue) > 0 {
		m.bud.Round()
		w := queue[0]
		queue = queue[1:]
		// One RoundSink per head predicate: emissions stream into it and
		// straight into the maintained totals. Rule bodies read the totals
		// as they stood when this step began, frozen until the sinks'
		// deltas are queued below; each delta is a window of its total.
		for p, t := range m.total {
			frozen[p] = t.Window(0, t.Len())
		}
		sinks := make(map[string]*RoundSink)
		for _, oc := range m.occs[w.pred] {
			cr := &m.rules[oc.rule]
			head := cr.rule.Head.Pred
			into := sinks[head]
			if into == nil {
				into = NewRoundSink(m.total[head], false)
				sinks[head] = into
			}
			occAtom := oc.atom
			src := func(atomIdx int, p string) *rel.Relation {
				if atomIdx == occAtom {
					return w.delta
				}
				if f := frozen[p]; f != nil {
					return f
				}
				return m.view.Relation(p)
			}
			row := make(rel.Tuple, cr.proj.Arity())
			s := cr.plan.Stream(src, nil)
			for b, ok := s.Next(); ok; b, ok = s.Next() {
				into.Add(cr.proj.Tuple(b, row))
			}
		}
		var interBytes int64
		for head, sink := range sinks {
			d := sink.Delta()
			interBytes += int64(sink.IntermediateLen(d)) * int64(m.total[head].Arity()) * int64(rel.ValueBytes)
			if d.Empty() {
				continue
			}
			added := d.Len()
			m.col.AddInserted(added)
			m.bud.AddDerived(added, m.total[head].Arity())
			m.col.Observe(head, m.total[head].Len())
			queue = append(queue, work{head, d})
		}
		m.col.ObserveIntermediate(interBytes)
		m.col.AddIteration()
	}
}

// Answer evaluates a query against the maintained view (index lookup and
// projection only — no fixpoint work).
func (m *Materialized) Answer(q ast.Atom) (*rel.Relation, error) {
	if err := m.checkUsable(); err != nil {
		return nil, err
	}
	return Answer(m.view, q)
}
