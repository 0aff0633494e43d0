// Package magic implements the Generalized Magic Sets rewrite
// [BMSU86, BR87] — the general-purpose comparison algorithm of the paper's
// §4. Given a program and a selection query, Rewrite produces a program
// whose bottom-up (semi-naive) evaluation restricts derivations to those
// relevant to the query, exactly in the form the paper displays:
//
//	magic(tom).
//	magic(W) :- magic(X) & friend(X, W).
//	buys(X, Y) :- magic(X) & perfectFor(X, Y).
//	buys(X, Y) :- magic(X) & friend(X, W) & buys(W, Y).
//	buys(X, Y) :- magic(X) & buys(X, Z) & cheaper(Z, Y).
//
// (Our generated predicates carry explicit adornments, e.g. buys@bf and
// magic@buys@bf.) Sideways information passing is left-to-right over the
// textual body order.
package magic

import (
	"fmt"

	"sepdl/internal/adorn"
	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/database"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// Rewrite produces the magic-rewritten program for query q over prog,
// together with the query to pose against the rewritten program. The query
// must have at least one constant (the paper considers selection queries);
// an all-free query is rewritten trivially (empty-bodied magic seed of
// arity 0), which degenerates to full bottom-up evaluation.
func Rewrite(prog *ast.Program, q ast.Atom) (*ast.Program, ast.Atom, error) {
	if err := prog.Validate(); err != nil {
		return nil, ast.Atom{}, err
	}
	arities, err := prog.Arities()
	if err != nil {
		return nil, ast.Atom{}, err
	}
	if want, ok := arities[q.Pred]; ok && want != len(q.Args) {
		return nil, ast.Atom{}, fmt.Errorf("magic: query %s has arity %d, program uses %d", q, len(q.Args), want)
	}
	idb := prog.IDBPreds()
	if !idb[q.Pred] {
		return nil, ast.Atom{}, fmt.Errorf("magic: query predicate %s is not an IDB predicate", q.Pred)
	}

	a0 := adorn.FromQuery(q)
	out := &ast.Program{}

	// Seed: magic@p@a0(constants).
	seedArgs := adorn.BoundArgs(q, a0)
	out.Rules = append(out.Rules, ast.Rule{Head: ast.Atom{Pred: adorn.MagicName(q.Pred, a0), Args: seedArgs}})

	type job struct {
		pred string
		ad   adorn.Adornment
	}
	done := make(map[string]bool)
	copied := make(map[string]bool)
	work := []job{{q.Pred, a0}}
	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		key := adorn.Name(j.pred, j.ad)
		if done[key] {
			continue
		}
		done[key] = true

		magicHead := ast.Atom{Pred: adorn.MagicName(j.pred, j.ad)}
		for _, r := range prog.RulesFor(j.pred) {
			bound := make(map[string]bool)
			var magicArgs []ast.Term
			for _, p := range j.ad.BoundPositions() {
				t := r.Head.Args[p]
				magicArgs = append(magicArgs, t)
				if t.IsVar() {
					bound[t.Name] = true
				}
			}
			magicAtom := ast.Atom{Pred: magicHead.Pred, Args: magicArgs}

			// Build the rewritten rule body and the per-atom magic rules.
			newBody := []ast.Atom{magicAtom}
			var prefix []ast.Atom // adorned atoms before the current one
			for _, b := range r.Body {
				if idb[b.Pred] && b.Negated {
					// Negated IDB atoms must see the predicate's full
					// relation, so its original definition is copied into
					// the rewritten program unrestricted.
					copyFullDefinition(out, prog, b.Pred, idb, copied)
					newBody = append(newBody, b)
					prefix = append(prefix, b)
					adorn.BindVars(b, bound)
					continue
				}
				if idb[b.Pred] {
					ad := adorn.ForAtom(b, bound)
					// magic rule for this occurrence.
					mr := ast.Rule{
						Head: ast.Atom{Pred: adorn.MagicName(b.Pred, ad), Args: adorn.BoundArgs(b, ad)},
						Body: append([]ast.Atom{magicAtom.Clone()}, cloneAtoms(prefix)...),
					}
					out.Rules = append(out.Rules, mr)
					work = append(work, job{b.Pred, ad})
					adorned := ast.Atom{Pred: adorn.Name(b.Pred, ad), Args: b.Args}
					newBody = append(newBody, adorned)
					prefix = append(prefix, adorned)
				} else {
					newBody = append(newBody, b)
					prefix = append(prefix, b)
				}
				adorn.BindVars(b, bound)
			}
			out.Rules = append(out.Rules, ast.Rule{
				Head: ast.Atom{Pred: adorn.Name(j.pred, j.ad), Args: r.Head.Args},
				Body: newBody,
			})
		}
	}

	rq := ast.Atom{Pred: adorn.Name(q.Pred, a0), Args: q.Args}
	return out, rq, nil
}

// copyFullDefinition appends the original (un-rewritten) rules defining
// pred, and transitively everything those rules depend on, so negated
// occurrences read the complete relation. Each predicate is copied once.
func copyFullDefinition(out *ast.Program, prog *ast.Program, pred string, idb map[string]bool, copied map[string]bool) {
	if copied[pred] {
		return
	}
	copied[pred] = true
	for _, r := range prog.RulesFor(pred) {
		out.Rules = append(out.Rules, r.Clone())
		for _, b := range r.Body {
			if idb[b.Pred] {
				copyFullDefinition(out, prog, b.Pred, idb, copied)
			}
		}
	}
}

func cloneAtoms(atoms []ast.Atom) []ast.Atom {
	out := make([]ast.Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Clone()
	}
	return out
}

// Options configure Answer and AnswerBatch.
type Options struct {
	Collector *stats.Collector
	Naive     bool // evaluate the rewritten program naively (ablation)
	// Supplementary uses the supplementary-magic rewrite of [BR87]
	// (RewriteSupplementary) instead of the basic rewrite.
	Supplementary bool
	// Budget, when non-nil, governs the bottom-up evaluation of the
	// rewritten program at round and join-inner-loop granularity.
	Budget *budget.Budget
	// Template, when non-nil, supplies the precompiled rewrite for the
	// query's form (from a plan cache): Answer binds the query's constants
	// into it instead of rewriting, and Supplementary is ignored in favor
	// of the template's own flavor.
	Template *Template
}

// Answer evaluates query q over prog and db with the Generalized Magic Sets
// strategy: rewrite, evaluate the rewritten program semi-naively, and
// project the answer onto q's distinct variables. One query is a batch of
// one: Answer is AnswerBatch over []ast.Atom{q}, whose template binds
// exactly the seed rule and rules Rewrite emits.
func Answer(prog *ast.Program, db *database.Database, q ast.Atom, opts Options) (*rel.Relation, error) {
	out, err := AnswerBatch(prog, db, []ast.Atom{q}, opts)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
