package eval

import (
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/rel"
)

// supportCheck decides whether a given head tuple of one rule has a
// derivation from the current relations: the rule body evaluated with the
// head variables bound to the tuple's values.
type supportCheck struct {
	rule ast.Rule
	plan *conj.Plan
	// varOf maps each distinct head variable (in plan bound order) to its
	// first head position.
	varPos []int
	// eq lists (i, j) head position pairs that must agree (repeated head
	// variables).
	eq [][2]int
	// constPos/constVal are head constants the tuple must match.
	constPos []int
	constVal []rel.Value
}

func newSupportCheck(r ast.Rule, intern func(string) rel.Value) (*supportCheck, error) {
	sc := &supportCheck{rule: r}
	first := make(map[string]int)
	var boundVars []string
	for i, t := range r.Head.Args {
		if t.IsVar() {
			if j, ok := first[t.Name]; ok {
				sc.eq = append(sc.eq, [2]int{j, i})
			} else {
				first[t.Name] = i
				boundVars = append(boundVars, t.Name)
				sc.varPos = append(sc.varPos, i)
			}
		} else {
			sc.constPos = append(sc.constPos, i)
			sc.constVal = append(sc.constVal, intern(t.Name))
		}
	}
	plan, err := conj.Compile(r.Body, boundVars, intern)
	if err != nil {
		return nil, err
	}
	sc.plan = plan
	return sc, nil
}

// derives reports whether the rule can derive t from the relations in src.
// Pulling from the plan's stream lets it stop at the first witness instead
// of enumerating every derivation the way the old push evaluator had to.
func (sc *supportCheck) derives(src conj.RelSource, t rel.Tuple) bool {
	for i, p := range sc.constPos {
		if t[p] != sc.constVal[i] {
			return false
		}
	}
	for _, pq := range sc.eq {
		if t[pq[0]] != t[pq[1]] {
			return false
		}
	}
	in := make([]rel.Value, len(sc.varPos))
	for i, p := range sc.varPos {
		in[i] = t[p]
	}
	_, found := sc.plan.Stream(src, in).Next()
	return found
}

// DeleteFact removes a base fact and maintains the IDB relations with
// delete-and-rederive (DRed), as two seeded runs of the semi-naive round
// loop: the first over-deletes, marking every tuple whose known
// derivations may involve the deleted fact; the second re-derives,
// starting from the marked tuples that keep a derivation from the
// remaining data. Reports whether the fact was present.
func (m *Materialized) DeleteFact(pred string, args ...string) (bool, error) {
	if err := m.checkUsable(); err != nil {
		return false, err
	}
	if ast.Builtin(pred) {
		return false, fmt.Errorf("eval: %s is a builtin predicate", pred)
	}
	if m.total[pred] != nil {
		return false, fmt.Errorf("eval: %s is an IDB predicate; only base facts can be deleted", pred)
	}
	base := m.base[pred]
	if base == nil {
		return false, nil
	}
	t := make(rel.Tuple, len(args))
	for i, a := range args {
		v, ok := m.view.Syms.Lookup(a)
		if !ok {
			return false, nil
		}
		t[i] = v
	}
	if len(t) != base.Arity() || !base.Contains(t) {
		return false, nil
	}

	// Phase 1: over-deletion, a run seeded with the deleted fact over the
	// PRE-delete view (the base fact and marked IDB tuples stay visible to
	// the other body atoms, so derivations using several doomed tuples are
	// still found). It appends its marks to private relations; every
	// marked tuple is already in its total, the view being a fixpoint.
	// Marking mutates nothing the view serves, so a budget abort here
	// leaves the view fully consistent.
	marked := make(map[string]*rel.Relation, len(m.total))
	for p, tot := range m.total {
		marked[p] = rel.New(tot.Arity())
	}
	doomed := rel.New(len(t))
	doomed.Insert(t)
	if err := func() (err error) {
		defer budget.Guard(&err)
		return m.stratum.run(m.view, marked, map[string]*rel.Relation{pred: doomed}, m.opts())
	}(); err != nil {
		return false, err
	}

	// Phases 2 and 3 mutate the view, so from here a budget abort marks it
	// invalid (see mutating).
	err := m.mutating(func() error {
		// Phase 2: apply the deletions.
		base.Delete(t)
		for p, mk := range marked {
			for i := range mk.Len() {
				m.total[p].Delete(mk.Row(i))
			}
		}

		// Phase 3: re-insert the over-deleted tuples that still have a
		// derivation from the remaining data, then run the loop seeded
		// with them, which re-derives everything downstream (including
		// marked tuples that only became derivable again through these).
		src := func(_ int, p string) *rel.Relation { return m.view.Relation(p) }
		seed := make(map[string]*rel.Relation)
		for p, mk := range marked {
			tot := m.total[p]
			n := tot.Len()
			for i := range mk.Len() {
				row := mk.Row(i)
				for _, sc := range m.support[p] {
					if sc.derives(src, row) {
						tot.Insert(row)
						// Re-derivation is real maintenance work: without
						// this the churn of an over-delete/re-derive pass
						// would be invisible to the tuple and byte budgets.
						m.col.AddInserted(1)
						m.bud.AddDerived(1, len(row))
						break
					}
				}
			}
			seed[p] = tot.Window(n, tot.Len())
		}
		return m.stratum.run(m.view, nil, seed, m.opts())
	})
	if err != nil {
		return false, err
	}
	return true, nil
}
