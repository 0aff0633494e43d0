package magic

import (
	"fmt"

	"sepdl/internal/adorn"
	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
)

// Template is a magic rewrite with the selection constants factored out.
// Both rewrites depend on the query only through its adornment — which
// positions are constants — except for the seed rule, whose arguments ARE
// the constants; everything else is shared by every query of the form. A
// Template keeps the constant-independent part, so a plan cache can rewrite
// a query form once and Bind fresh constants per execution, and a batch can
// run many seeds in one fixpoint. Templates are immutable and safe to share
// across concurrent queries.
type Template struct {
	// Pred and Adornment identify the query form the template was compiled
	// for; Bind rejects atoms of any other form.
	Pred      string
	Adornment adorn.Adornment
	// BoundPos are the constant positions, ascending — the argument order
	// of the seed predicate.
	BoundPos []int
	// SeedPred is the magic seed predicate the rewrite's evaluation starts
	// from (magic@pred@adornment).
	SeedPred string
	// QueryPred is the rewritten predicate to read answers from
	// (pred@adornment).
	QueryPred string
	// Rules is the rewritten program minus the seed rule.
	Rules []ast.Rule
	// Supplementary records which rewrite produced the template.
	Supplementary bool
}

// NewTemplate compiles the constant-independent magic rewrite for q's form
// (q's constants only determine the adornment; their values are discarded).
func NewTemplate(prog *ast.Program, q ast.Atom, supplementary bool) (*Template, error) {
	rewrite := Rewrite
	if supplementary {
		rewrite = RewriteSupplementary
	}
	rw, rq, err := rewrite(prog, q)
	if err != nil {
		return nil, err
	}
	a0 := adorn.FromQuery(q)
	// Both rewrites emit the seed first: the empty-bodied magic fact
	// holding the query constants. Everything after it is form-generic.
	if len(rw.Rules) == 0 || len(rw.Rules[0].Body) != 0 || rw.Rules[0].Head.Pred != adorn.MagicName(q.Pred, a0) {
		return nil, fmt.Errorf("magic: internal error: rewrite of %s did not emit the seed rule first", q)
	}
	return &Template{
		Pred:          q.Pred,
		Adornment:     a0,
		BoundPos:      a0.BoundPositions(),
		SeedPred:      rw.Rules[0].Head.Pred,
		QueryPred:     rq.Pred,
		Rules:         rw.Rules[1:],
		Supplementary: supplementary,
	}, nil
}

// Matches reports whether q is of the template's form: same predicate,
// constants at the same positions.
func (t *Template) Matches(q ast.Atom) bool {
	return q.Pred == t.Pred && adorn.FromQuery(q) == t.Adornment
}

// Bind instantiates the template for the given queries of its form: a
// program with one seed fact per query plus the shared rewritten rules,
// and the rewritten query atom for each input, aligned with qs. The
// returned program shares the template's rule structures; evaluation never
// mutates rules, so concurrent Binds of one template are safe.
func (t *Template) Bind(qs ...ast.Atom) (*ast.Program, []ast.Atom, error) {
	rules := make([]ast.Rule, 0, len(qs)+len(t.Rules))
	rqs := make([]ast.Atom, len(qs))
	for i, q := range qs {
		if !t.Matches(q) {
			return nil, nil, fmt.Errorf("magic: query %s does not match prepared form %s@%s", q, t.Pred, t.Adornment)
		}
		seedArgs := make([]ast.Term, len(t.BoundPos))
		for j, p := range t.BoundPos {
			seedArgs[j] = q.Args[p]
		}
		rules = append(rules, ast.Rule{Head: ast.Atom{Pred: t.SeedPred, Args: seedArgs}})
		rqs[i] = ast.Atom{Pred: t.QueryPred, Args: q.Args}
	}
	rules = append(rules, t.Rules...)
	return ast.NewProgram(rules...), rqs, nil
}

// AnswerBatch evaluates many queries of one form in a single fixpoint over
// the template's rewritten program, seeded with every query's magic fact at
// once, and reads each query's answers out of the shared view. The
// rewritten relation for the form contains exactly the union of what each
// single-seed evaluation derives (magic facts only ever restrict
// derivations to relevant ones; every derivation made from seed i's facts
// alone is still made with more seeds present), and per-query answers are
// recovered by selecting each query's constants, so answers are identical
// to per-query Answer calls.
func AnswerBatch(prog *ast.Program, db *database.Database, qs []ast.Atom, opts Options) ([]*rel.Relation, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	t := opts.Template
	if t == nil {
		var err error
		t, err = NewTemplate(prog, qs[0], opts.Supplementary)
		if err != nil {
			return nil, err
		}
	}
	rw, rqs, err := t.Bind(qs...)
	if err != nil {
		return nil, err
	}
	view, err := eval.Run(rw, db, eval.Options{
		Collector: opts.Collector,
		Naive:     opts.Naive,
		Budget:    opts.Budget,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*rel.Relation, len(qs))
	for i, rq := range rqs {
		ans, err := eval.Answer(view, rq)
		if err != nil {
			return nil, err
		}
		out[i] = ans
	}
	return out, nil
}
