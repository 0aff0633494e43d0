package eval

import (
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// Materialized is an incrementally maintained fixpoint: the IDB relations
// of a positive program, kept up to date as base facts arrive and leave.
// Maintenance runs on Run's semi-naive round loop: an insertion is a run
// seeded with the new fact as its only delta, so its cost is proportional
// to the new derivations, not to the database. Deletions are DeleteFact's
// delete-and-rederive (DRed) pass, two more seeded runs of the same loop.
// Programs with negation are rejected: a new fact can retract
// negation-derived tuples.
type Materialized struct {
	prog  *ast.Program
	view  *database.Database
	total map[string]*rel.Relation
	base  map[string]*rel.Relation // EDB relations, owned by this view
	// stratum holds every rule, compiled once: a negation-free program's
	// IDB predicates all fit in one stratum.
	stratum *stratum
	// support holds, per IDB predicate, one derivability check per rule
	// (used by DeleteFact's re-derivation phase).
	support map[string][]*supportCheck
	col     *stats.Collector
	bud     *budget.Budget
	// broken records a budget abort that interrupted a maintenance pass
	// mid-mutation; the view is then inconsistent and refuses further use.
	broken error
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
		support: make(map[string][]*supportCheck),
		col:     col,
		bud:     bud,
	}
	var preds []string
	for p := range idb {
		m.total[p] = fixed.Relation(p)
		preds = append(preds, p)
	}
	intern := fixed.Syms.Intern
	if m.stratum, err = compileStratum(prog.Rules, preds, intern, bud); err != nil {
		return nil, err
	}
	for _, r := range prog.Rules {
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
	// The base fact is in; from here an abort leaves the IDB relations
	// behind the base relations, so it poisons the view.
	seed := map[string]*rel.Relation{pred: r.Window(r.Len()-1, r.Len())}
	if err := m.mutating(func() { m.stratum.run(m.view, nil, seed, m.opts(), nil) }); err != nil {
		return false, err
	}
	return true, nil
}

// opts are the Options of every maintenance run.
func (m *Materialized) opts() Options { return Options{Collector: m.col, Budget: m.bud} }

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

// Answer evaluates a query against the maintained view (index lookup and
// projection only — no fixpoint work).
func (m *Materialized) Answer(q ast.Atom) (*rel.Relation, error) {
	if err := m.checkUsable(); err != nil {
		return nil, err
	}
	return Answer(m.view, q)
}
