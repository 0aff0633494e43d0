package conj

import (
	"sepdl/internal/ast"
	"sepdl/internal/rel"
)

// Transition is a compiled carry-extension operator (the f_i of the paper's
// Figure 2 schema): evaluate a conjunction with some variables bound from a
// carry tuple and project new values. Bound variables may repeat — repeated
// positions become equality guards on the carry tuple.
type Transition struct {
	plan    *Plan
	proj    *Projector
	eqPairs [][2]int // carry-column pairs that must be equal
	inIdx   []int    // carry columns feeding the plan's bound inputs
}

// NewTransition compiles a transition over atoms. boundVars are supplied
// positionally from the carry tuple at TransitionRunner.Apply time
// (duplicates allowed); outVars are projected in order.
func NewTransition(atoms []ast.Atom, boundVars, outVars []string, intern func(string) rel.Value) (*Transition, error) {
	tr := &Transition{}
	var uniq []string
	firstAt := make(map[string]int)
	for i, v := range boundVars {
		if j, ok := firstAt[v]; ok {
			tr.eqPairs = append(tr.eqPairs, [2]int{j, i})
			continue
		}
		firstAt[v] = i
		uniq = append(uniq, v)
		tr.inIdx = append(tr.inIdx, i)
	}
	plan, err := Compile(atoms, uniq, intern)
	if err != nil {
		return nil, err
	}
	terms := make([]ast.Term, len(outVars))
	for i, v := range outVars {
		terms[i] = ast.V(v)
	}
	proj, err := NewProjector(ast.Atom{Pred: "out", Args: terms}, plan, intern)
	if err != nil {
		return nil, err
	}
	tr.plan = plan
	tr.proj = proj
	return tr, nil
}

// SetTick forwards a join-inner-loop tick hook to the underlying plan.
func (tr *Transition) SetTick(tick func()) { tr.plan.SetTick(tick) }

// TransitionRunner executes one Transition with fully reusable scratch:
// the plan runner's binding and cursor arrays, the relations the body
// reads, and the bound-input and projected-output rows. A carry loop
// applies the same handful of transitions to every carry tuple of every
// round, one runner per transition, without per-tuple allocation or
// per-probe relation lookup. Like conj.Runner, a TransitionRunner belongs
// to one goroutine and supports one in-flight Apply/Stream at a time.
type TransitionRunner struct {
	tr  *Transition
	run *Runner
	in  []rel.Value
	row rel.Tuple
}

// NewRunner returns a runner over the transition with its own scratch,
// reading the body's relations from src. Each atom's relation is resolved
// here, once, so src must not change what it serves while the runner is
// in use. The runner inherits the plan's tick hook as installed at
// creation time.
func (tr *Transition) NewRunner(src RelSource) *TransitionRunner {
	t := &TransitionRunner{
		tr:  tr,
		run: tr.plan.NewRunner(),
		in:  make([]rel.Value, len(tr.inIdx)),
		row: make(rel.Tuple, tr.proj.Arity()),
	}
	t.run.bind(src)
	return t
}

// Apply runs the transition for one carry tuple and emits projected output
// tuples: it pulls bindings from the underlying plan stream and projects
// each into the runner's reused output row, so emit must copy anything it
// keeps.
func (t *TransitionRunner) Apply(carry rel.Tuple, emit func(rel.Tuple)) {
	s, ok := t.Stream(carry)
	if !ok {
		return
	}
	for b, bok := s.Next(); bok; b, bok = s.Next() {
		emit(t.tr.proj.Tuple(b, t.row))
	}
}

// Stream begins a pull evaluation for one carry tuple, returning false
// when the carry fails the transition's equality guards (no bindings). Use
// Project to turn each yielded binding into the transition's output row.
func (t *TransitionRunner) Stream(carry rel.Tuple) (*Stream, bool) {
	for _, p := range t.tr.eqPairs {
		if carry[p[0]] != carry[p[1]] {
			return nil, false
		}
	}
	for i, j := range t.tr.inIdx {
		t.in[i] = carry[j]
	}
	return t.run.start(t.in), true
}

// Project renders a binding yielded by Stream into the transition's
// projected output row. The row is the runner's reused buffer.
func (t *TransitionRunner) Project(b []rel.Value) rel.Tuple {
	return t.tr.proj.Tuple(b, t.row)
}
