// Package aho implements the selection-pushing technique of Aho and Ullman
// [AU79], discussed in the paper's related work (§1): a selection on a
// *stable* argument of a recursively defined relation commutes with the
// fixpoint, so it can be pushed into the rules before bottom-up
// evaluation. Combined with semi-naive evaluation this coincides with the
// Separable algorithm when the selection lies in t|pers of a separable
// recursion; unlike Separable it also applies to nonlinear recursions, but
// it cannot handle selections on columns the recursion rewrites (the
// equivalence-class columns) — the two methods cover incommensurate query
// classes, as the paper notes.
package aho

import (
	"errors"
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// ErrUnsupported reports a selection on a non-stable argument: pushing it
// into the fixpoint would change the result.
var ErrUnsupported = errors.New("aho: selection is not on stable arguments; cannot push into the fixpoint")

// StablePositions returns the argument positions of pred that are stable
// in prog: in every rule defining pred, every body occurrence of pred
// carries exactly the head's term at that position. Selections on stable
// positions commute with the fixpoint operator.
func StablePositions(prog *ast.Program, pred string) ([]int, error) {
	rules := prog.RulesFor(pred)
	if len(rules) == 0 {
		return nil, fmt.Errorf("aho: no rules define %s", pred)
	}
	arity := len(rules[0].Head.Args)
	stable := make([]bool, arity)
	for i := range stable {
		stable[i] = true
	}
	for _, r := range rules {
		for _, occ := range r.BodyOccurrences(pred) {
			body := r.Body[occ]
			if len(body.Args) != arity {
				return nil, fmt.Errorf("aho: inconsistent arity for %s", pred)
			}
			for p := 0; p < arity; p++ {
				h, b := r.Head.Args[p], body.Args[p]
				if !h.Equal(b) {
					stable[p] = false
				}
			}
		}
	}
	var out []int
	for p, ok := range stable {
		if ok {
			out = append(out, p)
		}
	}
	return out, nil
}

// Options configure Answer.
type Options struct {
	Collector *stats.Collector
	// Budget, when non-nil, governs the bottom-up evaluation of the pushed
	// program at round and join-inner-loop granularity.
	Budget *budget.Budget
}

// Push returns a copy of prog in which the selection constants of q (which
// must all sit at stable positions of q.Pred) are substituted into every
// rule defining q.Pred. Evaluating the pushed program bottom-up computes
// exactly σ(t).
func Push(prog *ast.Program, q ast.Atom) (*ast.Program, error) {
	stable, err := StablePositions(prog, q.Pred)
	if err != nil {
		return nil, err
	}
	isStable := make(map[int]bool, len(stable))
	for _, p := range stable {
		isStable[p] = true
	}
	hasConst := false
	for p, t := range q.Args {
		if !t.IsVar() {
			hasConst = true
			if !isStable[p] {
				return nil, fmt.Errorf("%w (position %d)", ErrUnsupported, p+1)
			}
		}
	}
	if !hasConst {
		return nil, fmt.Errorf("%w (no selection constants)", ErrUnsupported)
	}
	out := &ast.Program{}
	for _, r := range prog.Rules {
		if r.Head.Pred != q.Pred {
			out.Rules = append(out.Rules, r.Clone())
			continue
		}
		s := make(ast.Subst)
		skip := false
		for p, t := range q.Args {
			if t.IsVar() {
				continue
			}
			h := r.Head.Args[p]
			if !h.IsVar() {
				// Constant head argument: keep the rule only if it matches
				// the selection.
				if h.Name != t.Name {
					skip = true
				}
				continue
			}
			s[h.Name] = ast.C(t.Name)
		}
		if !skip {
			out.Rules = append(out.Rules, r.Apply(s))
		}
	}
	return out, nil
}

// Answer evaluates q by pushing its selection into the fixpoint and
// running semi-naive evaluation on the specialized program.
func Answer(prog *ast.Program, db *database.Database, q ast.Atom, opts Options) (*rel.Relation, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if !prog.IDBPreds()[q.Pred] {
		return nil, fmt.Errorf("aho: query predicate %s is not an IDB predicate", q.Pred)
	}
	// Mutual recursion through another predicate would require pushing the
	// selection into that predicate too; refuse.
	deps := prog.DependsOn(q.Pred)
	for p := range deps {
		if p != q.Pred && prog.DependsOn(p)[q.Pred] {
			return nil, fmt.Errorf("%w: %s is mutually recursive with %s", ErrUnsupported, p, q.Pred)
		}
	}
	// Evaluate only the rules the query depends on; predicates that merely
	// use q.Pred would otherwise read the restricted relation.
	trimmed := &ast.Program{}
	for _, r := range prog.Rules {
		if r.Head.Pred == q.Pred || deps[r.Head.Pred] {
			trimmed.Rules = append(trimmed.Rules, r)
		}
	}
	pushed, err := Push(trimmed, q)
	if err != nil {
		return nil, err
	}
	view, err := eval.Run(pushed, db, eval.Options{
		Collector: opts.Collector,
		Budget:    opts.Budget,
	})
	if err != nil {
		return nil, err
	}
	return eval.Answer(view, q)
}
