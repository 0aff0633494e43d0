package expand

import (
	"sepdl/internal/ast"
	"sepdl/internal/conj"
	"sepdl/internal/database"
	"sepdl/internal/rel"
)

// Eval evaluates one string of the expansion as a conjunctive query over
// db, returning the relation over the distinguished variables in position
// order — the "relation specified by the string" of §2. The union of these
// relations over the whole (unbounded) expansion is the recursively defined
// relation.
func (e *Expansion) Eval(s String, db *database.Database) (*rel.Relation, error) {
	plan, err := conj.Compile(s.Atoms, nil, db.Syms.Intern)
	if err != nil {
		return nil, err
	}
	args := make([]ast.Term, e.Arity)
	for p := 0; p < e.Arity; p++ {
		args[p] = ast.V(ast.CanonicalHeadVar(p))
	}
	proj, err := conj.NewProjector(ast.Atom{Pred: e.Pred, Args: args}, plan, db.Syms.Intern)
	if err != nil {
		return nil, err
	}
	out := rel.New(e.Arity)
	row := make(rel.Tuple, e.Arity)
	st := plan.Stream(conj.DBSource(db.Relation), nil)
	// sepvet:ignore:budgetcheck — one non-recursive conjunctive query over a finite database, with no caller budget: only Theorem 2.1's tests evaluate expansion strings
	for b, ok := st.Next(); ok; b, ok = st.Next() {
		out.Insert(proj.Tuple(b, row))
	}
	return out, nil
}

// EvalUnion evaluates every string and returns the union of their
// relations: the depth-bounded approximation of the recursive relation.
func (e *Expansion) EvalUnion(db *database.Database) (*rel.Relation, error) {
	out := rel.New(e.Arity)
	for _, s := range e.Strings {
		r, err := e.Eval(s, db)
		if err != nil {
			return nil, err
		}
		out.InsertAll(r)
	}
	return out, nil
}
