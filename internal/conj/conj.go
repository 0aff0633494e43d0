// Package conj compiles and evaluates conjunctions of atoms — rule bodies —
// against a database, given an initial set of bound variables. It is the
// join kernel shared by every evaluation strategy in this repository: the
// semi-naive engine, Magic Sets, Counting, Henschen–Naqvi, and the
// Separable algorithm's carry-extension operators f_i all reduce to
// "evaluate this conjunction left-to-right using indexes" (§3.2 of the
// paper). A compiled Plan has one executor, the pull Stream: consumers
// take satisfying bindings one at a time.
package conj

import (
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/rel"
	"sepdl/internal/symtab"
)

// Unbound marks a slot with no value yet during execution.
const Unbound = symtab.None

// RelSource supplies the relation for a body atom. The atom's original
// index is passed so callers can substitute delta relations for specific
// occurrences (semi-naive evaluation). A nil return is treated as an empty
// relation. A stream asks once per atom, when it starts (a TransitionRunner
// once, when it is built), never per probe.
type RelSource func(atomIdx int, pred string) *rel.Relation

// step is one atom of the compiled plan together with the binding state
// statically known at its position.
type step struct {
	atomIdx int // index of the atom in the original conjunction
	pred    string
	arity   int
	negated bool // anti-join filter: succeed iff no matching tuple exists
	builtin bool // eq/neq check over bound arguments; no relation involved

	lookupCols []int       // columns used for the index probe
	lookupSlot []int       // slot supplying each probe value, or -1 for a constant
	lookupVal  []rel.Value // constant probe values (parallel to lookupSlot)

	assign []colSlot // free columns: first occurrence of an unbound variable
	check  []colSlot // repeated unbound variable within this atom: equality check
}

type colSlot struct {
	col  int
	slot int
}

// Plan is a compiled conjunction ready for repeated execution.
type Plan struct {
	steps   []step
	vars    []string
	slot    map[string]int
	nIn     int  // leading slots that must be bound before Stream
	noIndex bool // ablation: scan and filter instead of index probes
	tick    func()
}

// SetTick installs a hook called once per candidate tuple the plan
// considers — the join-inner-loop granularity at which a resource budget
// polls for cancellation (budget.Budget.TickFunc). A nil hook (the
// default) costs one branch per candidate.
func (p *Plan) SetTick(tick func()) { p.tick = tick }

// CompileOptions tune plan compilation; the zero value is the normal
// behaviour. The ablation benchmarks use these to quantify what each
// design decision buys.
type CompileOptions struct {
	// NoIndex makes every step scan its relation and filter, instead of
	// probing a hash index on the bound columns.
	NoIndex bool
	// NoReorder keeps body atoms in textual order instead of greedily
	// running the most-bound atom first.
	NoReorder bool
}

// NumVars returns the number of variable slots in the plan.
func (p *Plan) NumVars() int { return len(p.vars) }

// Slot returns the slot index of the named variable and whether it occurs
// in the plan (or was declared bound at compile time).
func (p *Plan) Slot(name string) (int, bool) {
	s, ok := p.slot[name]
	return s, ok
}

// Vars returns the plan's variables in slot order.
func (p *Plan) Vars() []string { return append([]string(nil), p.vars...) }

// Compile builds an execution plan for atoms. boundVars lists the variables
// whose values the caller will supply to Stream, in the order the caller
// will supply them (they receive slots 0..len(boundVars)-1). intern maps
// constant names to values; it is typically (*symtab.Table).Intern.
//
// Atoms are greedily reordered: at each point the atom with the most bound
// argument positions runs next (constants count as bound; ties keep program
// order). This is the "use shared variables to restrict subsequent lookups"
// discipline of §3.2.
func Compile(atoms []ast.Atom, boundVars []string, intern func(string) rel.Value) (*Plan, error) {
	return CompileWith(atoms, boundVars, intern, CompileOptions{})
}

// CompileWith is Compile with explicit options.
func CompileWith(atoms []ast.Atom, boundVars []string, intern func(string) rel.Value, opts CompileOptions) (*Plan, error) {
	p := &Plan{slot: make(map[string]int), noIndex: opts.NoIndex}
	for _, v := range boundVars {
		if _, ok := p.slot[v]; ok {
			return nil, fmt.Errorf("conj: duplicate bound variable %s", v)
		}
		p.slot[v] = len(p.vars)
		p.vars = append(p.vars, v)
	}
	p.nIn = len(boundVars)

	bound := make(map[string]bool, len(boundVars))
	for _, v := range boundVars {
		bound[v] = true
	}

	remaining := make([]int, len(atoms))
	for i := range atoms {
		remaining[i] = i
	}
	fullyBound := func(a ast.Atom) bool {
		for _, t := range a.Args {
			if t.IsVar() && !bound[t.Name] {
				return false
			}
		}
		return true
	}
	for len(remaining) > 0 {
		// Pick the most-bound eligible remaining atom (or the first
		// eligible one in textual order under the NoReorder ablation).
		// Negated and builtin atoms are eligible only once fully bound:
		// they are filters, not generators.
		best, bestScore := -1, -1
		for ri, ai := range remaining {
			if (atoms[ai].Negated || ast.Builtin(atoms[ai].Pred)) && !fullyBound(atoms[ai]) {
				continue
			}
			score := 0
			for _, t := range atoms[ai].Args {
				if !t.IsVar() || bound[t.Name] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = ri, score
			}
			if opts.NoReorder {
				break
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("conj: unsafe negation or builtin: remaining filter atoms cannot be fully bound")
		}
		ai := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)

		a := atoms[ai]
		st := step{atomIdx: ai, pred: a.Pred, arity: len(a.Args), negated: a.Negated, builtin: ast.Builtin(a.Pred)}
		seenHere := make(map[string]int) // var -> slot assigned within this atom
		for col, t := range a.Args {
			switch {
			case !t.IsVar():
				st.lookupCols = append(st.lookupCols, col)
				st.lookupSlot = append(st.lookupSlot, -1)
				st.lookupVal = append(st.lookupVal, intern(t.Name))
			case bound[t.Name]:
				st.lookupCols = append(st.lookupCols, col)
				st.lookupSlot = append(st.lookupSlot, p.slot[t.Name])
				st.lookupVal = append(st.lookupVal, 0)
			default:
				if s, ok := seenHere[t.Name]; ok {
					st.check = append(st.check, colSlot{col: col, slot: s})
					continue
				}
				s, ok := p.slot[t.Name]
				if !ok {
					s = len(p.vars)
					p.slot[t.Name] = s
					p.vars = append(p.vars, t.Name)
				}
				seenHere[t.Name] = s
				st.assign = append(st.assign, colSlot{col: col, slot: s})
			}
		}
		for v := range seenHere {
			bound[v] = true
		}
		p.steps = append(p.steps, st)
	}
	return p, nil
}

// AtomOrder returns, for each execution step, the original index of the
// atom it evaluates.
func (p *Plan) AtomOrder() []int {
	out := make([]int, len(p.steps))
	for i, s := range p.steps {
		out[i] = s.atomIdx
	}
	return out
}

// Runner executes one compiled Plan with private, reusable scratch: the
// slot binding vector plus one cursor (resolved relation, probe-key buffer
// and candidate scan) per plan step. The semi-naive round loop keeps one
// Runner per rule and reuses it across rounds; concurrent evaluations each
// build their own over the shared Plan, which stays immutable during
// execution, so any number of Runners may execute it at once. One Runner
// supports one in-flight Stream at a time; one-shot callers use
// Plan.Stream, which builds a fresh Runner.
type Runner struct {
	p       *Plan
	tick    func()
	binding []rel.Value
	cursors []stepCursor
	stream  Stream
}

// NewRunner returns a Runner over p with its own binding state. The
// runner inherits the plan's tick hook as installed at creation time;
// override it per runner with SetTick.
func (p *Plan) NewRunner() *Runner {
	return &Runner{p: p, tick: p.tick, binding: make([]rel.Value, len(p.vars)),
		cursors: make([]stepCursor, len(p.steps))}
}

// SetTick installs this runner's per-candidate budget hook, shadowing the
// plan-level one.
func (r *Runner) SetTick(tick func()) { r.tick = tick }

// DBSource adapts a pred->relation lookup into a RelSource ignoring atom
// indexes.
func DBSource(get func(pred string) *rel.Relation) RelSource {
	return func(_ int, pred string) *rel.Relation { return get(pred) }
}
