// Package tabling implements memoized top-down evaluation (SLD resolution
// with tabling, in the spirit of QSQ [Vieille 1986]) for positive Datalog
// queries. Goals — a predicate with an adornment and bound values — are
// solved by the program rules top-down; each goal's answers are tabled, and
// mutually dependent goals iterate to a joint fixpoint. Tabling is the
// top-down counterpart of the Magic Sets rewrite: it explores the same
// query-reachable portion of the database, so on the paper's workloads it
// shows the same Ω-behaviour as Magic Sets, not the Separable algorithm's.
package tabling

import (
	"errors"
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// ErrNegation reports a program outside this evaluator's scope: tabling
// here is positive-Datalog only (negated IDB subgoals would need
// stratum-aware completion).
var ErrNegation = errors.New("tabling: negated IDB atoms are not supported")

// Options configure Answer.
type Options struct {
	// Collector receives per-goal table sizes ("table@pred#i", one entry
	// per tabled goal, so TotalSize sums the tabled work).
	Collector *stats.Collector
	// MaxGoals bounds the number of distinct tabled goals; 0 means 1<<20.
	MaxGoals int
	// Budget, when non-nil, is checked per goal-solving pass and per
	// candidate tuple; exceeding it aborts with a *budget.ResourceError.
	Budget *budget.Budget
}

type goal struct {
	pred string
	key  string // adornment + encoded bound values
	// bound maps argument position -> bound value.
	bound map[int]rel.Value
}

type solver struct {
	prog     *ast.Program
	db       *database.Database
	idb      map[string]bool
	tables   map[string]*rel.Relation // goal key -> full-arity answers
	goals    []goal
	goalIdx  map[string]int
	arities  map[string]int
	col      *stats.Collector
	bud      *budget.Budget
	maxGoals int
	changed  bool
	err      error

	// Dependency-driven scheduling: deps[k] lists the goals whose last
	// solving read table k; when k grows they are re-queued.
	deps    map[string]map[int]bool
	dirty   []int
	inDirty []bool
	current int // index of the goal being solved
}

func goalKey(pred string, bound map[int]rel.Value, arity int) string {
	b := make([]byte, 0, arity*5+len(pred))
	b = append(b, pred...)
	for p := 0; p < arity; p++ {
		if v, ok := bound[p]; ok {
			b = append(b, 'b', byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		} else {
			b = append(b, 'f')
		}
	}
	return string(b)
}

// register ensures a table exists for the goal, records that the current
// goal depends on it, and returns it. Newly created goals are queued.
func (s *solver) register(pred string, bound map[int]rel.Value) *rel.Relation {
	k := goalKey(pred, bound, s.arities[pred])
	if s.current >= 0 {
		if s.deps[k] == nil {
			s.deps[k] = make(map[int]bool)
		}
		s.deps[k][s.current] = true
	}
	if t, ok := s.tables[k]; ok {
		return t
	}
	t := rel.New(s.arities[pred])
	s.tables[k] = t
	s.goals = append(s.goals, goal{pred: pred, key: k, bound: bound})
	gi := len(s.goals) - 1
	s.goalIdx[k] = gi
	s.inDirty = append(s.inDirty, true)
	s.dirty = append(s.dirty, gi)
	return t
}

// markDirty re-queues every goal depending on table k.
func (s *solver) markDirty(k string) {
	for gi := range s.deps[k] {
		if !s.inDirty[gi] {
			s.inDirty[gi] = true
			s.dirty = append(s.dirty, gi)
		}
	}
}

// Answer evaluates the selection (or full) query q top-down with tabling.
func Answer(prog *ast.Program, db *database.Database, q ast.Atom, opts Options) (_ *rel.Relation, err error) {
	defer budget.Guard(&err)
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	idb := prog.IDBPreds()
	if !idb[q.Pred] {
		return nil, fmt.Errorf("tabling: query predicate %s is not an IDB predicate", q.Pred)
	}
	for _, r := range prog.Rules {
		for _, b := range r.Body {
			if b.Negated && idb[b.Pred] {
				return nil, fmt.Errorf("%w (rule %s)", ErrNegation, r)
			}
		}
	}
	arities, err := prog.Arities()
	if err != nil {
		return nil, err
	}
	if want, ok := arities[q.Pred]; ok && want != len(q.Args) {
		return nil, fmt.Errorf("tabling: query %s has arity %d, program uses %d", q, len(q.Args), want)
	}
	maxGoals := opts.MaxGoals
	if maxGoals == 0 {
		maxGoals = 1 << 20
	}
	s := &solver{
		prog:     prog,
		db:       db,
		idb:      idb,
		tables:   make(map[string]*rel.Relation),
		goalIdx:  make(map[string]int),
		arities:  arities,
		col:      opts.Collector,
		bud:      opts.Budget,
		maxGoals: maxGoals,
		deps:     make(map[string]map[int]bool),
		current:  -1,
	}

	// Root goal from the query constants.
	rootBound := make(map[int]rel.Value)
	for i, t := range q.Args {
		if !t.IsVar() {
			rootBound[i] = db.Syms.Intern(t.Name)
		}
	}
	s.register(q.Pred, rootBound)

	// Dependency-driven fixpoint: solve dirty goals until none remain; a
	// goal is re-queued only when a table it reads grows.
	for len(s.dirty) > 0 {
		s.bud.Round()
		gi := s.dirty[len(s.dirty)-1]
		s.dirty = s.dirty[:len(s.dirty)-1]
		s.inDirty[gi] = false
		if len(s.goals) > s.maxGoals {
			return nil, fmt.Errorf("tabling: goal table exceeded %d entries", s.maxGoals)
		}
		s.changed = false
		prev := s.current
		s.current = gi
		s.solveOnce(s.goals[gi])
		s.current = prev
		if s.changed {
			s.markDirty(s.goals[gi].key)
		}
		s.col.AddIteration()
	}
	if s.err != nil {
		return nil, s.err
	}
	for i, g := range s.goals {
		s.col.Observe(fmt.Sprintf("table@%s#%d", g.pred, i), s.tables[g.key].Len())
	}

	sink := eval.NewAnswerSink(q, db.Syms)
	for _, t := range s.tables[goalKey(q.Pred, rootBound, arities[q.Pred])].Rows() {
		sink.Add(t)
	}
	s.col.Observe("ans", sink.Result().Len())
	return sink.Result(), nil
}

// solveOnce re-derives a goal's answers from the current tables.
func (s *solver) solveOnce(g goal) {
	table := s.tables[g.key]
	for _, r := range s.prog.RulesFor(g.pred) {
		// Unify the head with the goal's bound values.
		binding := make(map[string]rel.Value)
		ok := true
		for p, v := range g.bound {
			h := r.Head.Args[p]
			if !h.IsVar() {
				if s.db.Syms.Intern(h.Name) != v {
					ok = false
					break
				}
				continue
			}
			if prev, seen := binding[h.Name]; seen && prev != v {
				ok = false
				break
			}
			binding[h.Name] = v
		}
		if !ok {
			continue
		}
		s.solveBody(r, 0, binding, func(b map[string]rel.Value) {
			row := make(rel.Tuple, len(r.Head.Args))
			for i, t := range r.Head.Args {
				if t.IsVar() {
					v, bound := b[t.Name]
					if !bound {
						return // unsafe head var (cannot happen: Validate)
					}
					row[i] = v
				} else {
					row[i] = s.db.Syms.Intern(t.Name)
				}
			}
			if table.Insert(row) {
				s.changed = true
				s.bud.AddDerived(1, len(row))
			}
		})
	}
}

// solveBody enumerates satisfying bindings for r.Body[i:], extending the
// current binding map, consulting tables for IDB atoms (registering
// subgoals on first use) and relations for EDB atoms.
func (s *solver) solveBody(r ast.Rule, i int, binding map[string]rel.Value, emit func(map[string]rel.Value)) {
	if i == len(r.Body) {
		emit(binding)
		return
	}
	a := r.Body[i]
	if ast.Builtin(a.Pred) {
		val := func(t ast.Term) (rel.Value, bool) {
			if !t.IsVar() {
				return s.db.Syms.Intern(t.Name), true
			}
			v, ok := binding[t.Name]
			return v, ok
		}
		x, okX := val(a.Args[0])
		y, okY := val(a.Args[1])
		if !okX || !okY {
			s.err = fmt.Errorf("tabling: builtin %s used before its arguments are bound (reorder the rule body)", a.Pred)
			return
		}
		if (x == y) == (a.Pred == "eq") {
			s.solveBody(r, i+1, binding, emit)
		}
		return
	}
	var candidates []rel.Tuple
	if s.idb[a.Pred] {
		// Subgoal: bound positions are the constants plus bound variables.
		sub := make(map[int]rel.Value)
		for p, t := range a.Args {
			if !t.IsVar() {
				sub[p] = s.db.Syms.Intern(t.Name)
			} else if v, ok := binding[t.Name]; ok {
				sub[p] = v
			}
		}
		candidates = s.register(a.Pred, sub).Rows()
	} else {
		rel0 := s.db.Relation(a.Pred)
		if rel0 == nil {
			if a.Negated {
				s.solveBody(r, i+1, binding, emit)
			}
			return
		}
		// Probe an index on the bound argument positions.
		var cols []int
		var vals []rel.Value
		for p, t := range a.Args {
			if !t.IsVar() {
				cols = append(cols, p)
				vals = append(vals, s.db.Syms.Intern(t.Name))
			} else if v, ok := binding[t.Name]; ok {
				cols = append(cols, p)
				vals = append(vals, v)
			}
		}
		if len(cols) == 0 {
			candidates = rel0.Rows()
		} else {
			candidates = rel0.Index(cols).Lookup(vals)
		}
	}
	if a.Negated {
		// EDB-only by the scope check; all vars are bound (Validate).
		for _, t := range candidates {
			s.bud.Tick()
			if matchAtom(s, a, t, binding) != nil {
				return // a match refutes the negation
			}
		}
		s.solveBody(r, i+1, binding, emit)
		return
	}
	for _, t := range candidates {
		nb := matchAtom(s, a, t, binding)
		if nb == nil {
			continue
		}
		s.solveBody(r, i+1, nb, emit)
	}
}

// matchAtom unifies tuple t with atom a under binding; it returns the
// extended binding (a fresh map when new variables are bound) or nil.
func matchAtom(s *solver, a ast.Atom, t rel.Tuple, binding map[string]rel.Value) map[string]rel.Value {
	if len(t) != len(a.Args) {
		return nil
	}
	ext := binding
	extended := false
	for i, arg := range a.Args {
		if !arg.IsVar() {
			if s.db.Syms.Intern(arg.Name) != t[i] {
				return nil
			}
			continue
		}
		if v, ok := ext[arg.Name]; ok {
			if v != t[i] {
				return nil
			}
			continue
		}
		if !extended {
			nb := make(map[string]rel.Value, len(ext)+2)
			for k, v := range ext {
				nb[k] = v
			}
			ext = nb
			extended = true
		}
		ext[arg.Name] = t[i]
	}
	return ext
}

// AnswerWithSupport materializes support predicates like the other
// strategies before tabling, so programs whose recursion uses IDB-defined
// base predicates behave identically. (Plain Answer already handles them
// as subgoals; this variant exists for parity benchmarks.)
func AnswerWithSupport(prog *ast.Program, db *database.Database, q ast.Atom, opts Options) (*rel.Relation, error) {
	base, err := core.MaterializeSupport(prog, db, q.Pred, eval.Options{Collector: opts.Collector, Budget: opts.Budget})
	if err != nil {
		return nil, err
	}
	return Answer(prog, base, q, opts)
}
