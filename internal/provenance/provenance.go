// Package provenance explains why a derived fact holds: it reconstructs a
// well-founded derivation tree — the fact, the rule that produced it, and
// recursively the body facts — from the semi-naive fixpoint of package
// eval and the round marks it records. A fact's supports are searched
// among the tuples of strictly earlier rounds only, so the explanation
// never cites the fact itself on cyclic data.
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
)

// Node is one step of a derivation tree.
type Node struct {
	// Fact is the derived (or base) fact, rendered as a ground atom.
	Fact string
	// Rule is the rule that derived Fact; empty for base facts and for
	// negated leaves.
	Rule string
	// Base marks an EDB fact (a leaf).
	Base bool
	// Absent marks a negated leaf: the fact holds because the atom has no
	// matching tuple.
	Absent bool
	// Builtin marks an eq/neq comparison leaf.
	Builtin bool
	// Children are the body facts of Rule, in body order.
	Children []*Node
}

// String renders the derivation as an indented tree.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, "")
	return b.String()
}

func (n *Node) render(b *strings.Builder, indent string) {
	b.WriteString(indent)
	b.WriteString(n.Fact)
	switch {
	case n.Base:
		b.WriteString("   [base fact]")
	case n.Absent:
		b.WriteString("   [no matching tuple]")
	case n.Builtin:
		b.WriteString("   [builtin]")
	case n.Rule != "":
		b.WriteString("   [" + n.Rule + "]")
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		c.render(b, indent+"  ")
	}
}

// Explainer answers Why questions for one (program, database) pair. Build
// it once with New; each Explain call reads a fact's first round off the
// round marks and searches its rules for a support among the tuples of
// earlier rounds.
type Explainer struct {
	db    *database.Database // eval's view: db plus one total per IDB predicate
	idb   map[string]bool
	marks []map[string]int // eval.RunMarked's round marks
	plans []rulePlan
	bud   *budget.Budget // charged for every node Explain builds
}

type rulePlan struct {
	rule   ast.Rule
	plan   *conj.Plan // bound by the rule's distinct head variables
	varPos []int
	eq     [][2]int
	cPos   []int
	cVal   []rel.Value
}

// New evaluates prog over db (stratified) with eval's semi-naive fixpoint,
// keeping its round marks. The fixpoint charges bud (nil for unbounded)
// like any evaluation: explanation builds re-derive the whole IDB, so they
// owe the same cancellation points and tuple accounting as the query that
// derived the fact being explained. Every later Explain charges bud too:
// its support searches tick it, and each node it builds counts as one
// derived tuple of the node's arity, because a tree repeats shared
// subfacts and so can grow exponentially with its depth.
func New(prog *ast.Program, db *database.Database, bud *budget.Budget) (*Explainer, error) {
	view, marks, err := eval.RunMarked(prog, db, eval.Options{Budget: bud})
	if err != nil {
		return nil, err
	}
	e := &Explainer{db: view, idb: prog.IDBPreds(), marks: marks, bud: bud}
	intern := view.Syms.Intern

	// Per-rule support plans bound by the head variables.
	for _, r := range prog.Rules {
		rp := rulePlan{rule: r}
		first := make(map[string]int)
		var boundVars []string
		for i, t := range r.Head.Args {
			if t.IsVar() {
				if j, ok := first[t.Name]; ok {
					rp.eq = append(rp.eq, [2]int{j, i})
				} else {
					first[t.Name] = i
					boundVars = append(boundVars, t.Name)
					rp.varPos = append(rp.varPos, i)
				}
			} else {
				rp.cPos = append(rp.cPos, i)
				rp.cVal = append(rp.cVal, intern(t.Name))
			}
		}
		plan, err := conj.Compile(r.Body, boundVars, intern)
		if err != nil {
			return nil, err
		}
		plan.SetTick(bud.TickFunc())
		rp.plan = plan
		e.plans = append(e.plans, rp)
	}
	return e, nil
}

// Relation exposes the computed relation for pred (mainly for tests).
func (e *Explainer) Relation(pred string) *rel.Relation { return e.db.Relation(pred) }

// Explain returns a derivation tree for the ground atom fact, or an error
// if the fact does not hold or New's budget runs out.
func (e *Explainer) Explain(fact ast.Atom) (_ *Node, err error) {
	defer budget.Guard(&err)
	if !fact.IsGround() {
		return nil, fmt.Errorf("provenance: %s is not ground", fact)
	}
	t := make(rel.Tuple, len(fact.Args))
	for i, a := range fact.Args {
		v, ok := e.db.Syms.Lookup(a.Name)
		if !ok {
			return nil, fmt.Errorf("provenance: %s does not hold (unknown constant %s)", fact, a.Name)
		}
		t[i] = v
	}
	return e.explain(fact.Pred, t)
}

func (e *Explainer) render(pred string, t rel.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = ast.QuoteConst(e.db.Syms.Name(v))
	}
	if len(parts) == 0 {
		return pred
	}
	return pred + "(" + strings.Join(parts, ", ") + ")"
}

func (e *Explainer) explain(pred string, t rel.Tuple) (*Node, error) {
	r := e.db.Relation(pred)
	if r == nil || !r.Contains(t) {
		return nil, fmt.Errorf("provenance: %s does not hold", e.render(pred, t))
	}
	k := 0
	if e.idb[pred] {
		k = e.round(pred, t)
	}
	if k == 0 {
		// An EDB fact, or an initial fact under an IDB predicate's name.
		return e.node(pred, t, &Node{Base: true}), nil
	}
	for _, rp := range e.plans {
		if rp.rule.Head.Pred != pred {
			continue
		}
		node, err := e.tryRule(rp, t, k)
		if node != nil || err != nil {
			return node, err
		}
	}
	return nil, fmt.Errorf("provenance: internal error: no well-founded support for %s", e.render(pred, t))
}

// node charges the budget for one tree node over pred's tuple t and
// returns n with its Fact rendered.
func (e *Explainer) node(pred string, t rel.Tuple, n *Node) *Node {
	e.bud.AddDerived(1, len(t))
	n.Fact = e.render(pred, t)
	return n
}

// round returns the round that first derived t, a tuple of IDB predicate
// pred's total: the least k whose mark holds it, 0 for an initial fact.
func (e *Explainer) round(pred string, t rel.Tuple) int {
	total := e.db.Relation(pred)
	return sort.Search(len(e.marks), func(k int) bool {
		return total.Window(0, e.marks[k][pred]).Contains(t)
	})
}

// tryRule searches for a body instantiation of rp deriving t, a tuple of
// round k, and returns the node it roots, or nil if rp derives no such t.
// Every IDB body atom reads its total as it stood after round k-1, so each
// support found is well-founded by construction.
func (e *Explainer) tryRule(rp rulePlan, t rel.Tuple, k int) (*Node, error) {
	for i, p := range rp.cPos {
		if t[p] != rp.cVal[i] {
			return nil, nil
		}
	}
	for _, pq := range rp.eq {
		if t[pq[0]] != t[pq[1]] {
			return nil, nil
		}
	}
	in := make([]rel.Value, len(rp.varPos))
	for i, p := range rp.varPos {
		in[i] = t[p]
	}
	src := func(_ int, pred string) *rel.Relation {
		r := e.db.Relation(pred)
		if e.idb[pred] {
			return r.Window(0, e.marks[k-1][pred])
		}
		return r
	}
	// A fresh stream: explaining the children re-enters this rule's plan.
	b, ok := rp.plan.Stream(src, in).Next()
	if !ok {
		return nil, nil
	}
	node := e.node(rp.rule.Head.Pred, t, &Node{Rule: rp.rule.String()})
	for _, a := range rp.rule.Body {
		row := make(rel.Tuple, len(a.Args))
		for i, arg := range a.Args {
			if arg.IsVar() {
				slot, _ := rp.plan.Slot(arg.Name)
				row[i] = b[slot]
			} else {
				row[i] = e.db.Syms.Intern(arg.Name)
			}
		}
		switch {
		case a.Negated:
			leaf := e.node(a.Pred, row, &Node{Absent: true})
			leaf.Fact = "not " + leaf.Fact
			node.Children = append(node.Children, leaf)
		case ast.Builtin(a.Pred):
			node.Children = append(node.Children, e.node(a.Pred, row, &Node{Builtin: true}))
		default:
			child, err := e.explain(a.Pred, row)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
		}
	}
	return node, nil
}
