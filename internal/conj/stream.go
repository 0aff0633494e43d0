package conj

import (
	"fmt"

	"sepdl/internal/rel"
)

// This file is the plan executor: a compiled Plan evaluated as a
// resumable backtracking machine. Each
// generator step holds a stepCursor — the probe key it was entered with
// and a rel.Scan over its remaining candidates (the probe side of a hash
// join whose build side is the relation's lazily built, presized index).
// Stream.Next resumes the machine where the previous yield left it, so
// consumers pull satisfying bindings one at a time and nothing between the
// scans and the consumer's sink is ever materialized.
//
// Enumeration contract: Next yields bindings depth-first in plan step
// order, each step's candidates in scan order, and fires the budget tick
// hook once per candidate tuple considered (including candidates that
// fail the no-index match filter or a repeated-variable check, and the
// refuting candidate of a negation) — so answer bytes and tick counts,
// and therefore cancellation/deadline/fault-injection points, are fixed
// by the plan and the data.

// stepCursor is the resumable state of one step inside a Stream, plus
// the relation the step reads, resolved when the runner was bound (see
// Runner.bind). Filter steps (builtins, negation) hold no scan state:
// descending evaluates them once, and backtracking passes straight through
// them.
type stepCursor struct {
	rel  *rel.Relation // the step's relation; nil reads as empty
	key  []rel.Value   // probe-key buffer, reused across rounds at this depth
	scan rel.Scan      // candidate tuples not yet tried at this depth
}

// Stream is an in-flight pull evaluation of a Runner's plan. Obtain one
// with Runner.Stream (or Plan.Stream); call Next until it reports false.
// A Stream borrows its Runner's scratch arrays, so a runner supports one
// active stream at a time — starting a new Stream on the same runner
// abandons the previous one.
type Stream struct {
	r       *Runner
	started bool
	done    bool
}

// Stream begins a pull evaluation of the plan with the given bound input
// values, reusing the runner's binding and cursor scratch. Each body atom's
// relation is resolved through src once, here, never per probe. The
// returned stream is valid until the runner's next Stream call.
func (r *Runner) Stream(src RelSource, in []rel.Value) *Stream {
	r.bind(src)
	return r.start(in)
}

// bind resolves, through src, the relation each relation step reads, into
// the step's cursor. Streams started afterwards read those relations.
func (r *Runner) bind(src RelSource) {
	for d := range r.p.steps {
		if st := &r.p.steps[d]; !st.builtin {
			r.cursors[d].rel = src(st.atomIdx, st.pred)
		}
	}
}

// start begins a pull evaluation over the relations the last bind
// resolved.
func (r *Runner) start(in []rel.Value) *Stream {
	if len(in) != r.p.nIn {
		panic(fmt.Sprintf("conj: Stream got %d input values, plan declares %d", len(in), r.p.nIn))
	}
	for i := range r.binding {
		r.binding[i] = Unbound
	}
	copy(r.binding, in)
	r.stream = Stream{r: r}
	return &r.stream
}

// Stream is Runner.Stream on a fresh runner, for one-shot callers; hot
// loops should hold a Runner (or TransitionRunner) and reuse its scratch.
func (p *Plan) Stream(src RelSource, in []rel.Value) *Stream {
	return p.NewRunner().Stream(src, in)
}

// Next advances the machine to the next satisfying assignment and returns
// the full slot vector, or (nil, false) when the enumeration is exhausted.
// The returned slice is the runner's reused binding array: it is only
// valid until the next call, so callers must copy anything they keep.
func (s *Stream) Next() ([]rel.Value, bool) {
	if s.done {
		return nil, false
	}
	r := s.r
	p := r.p
	n := len(p.steps)

	// d is the step being worked on; descend says whether we are entering
	// it for the first time on this path (open its scan, or evaluate it if
	// it is a filter) or backtracking into it for another candidate.
	d := 0
	descend := true
	if s.started {
		// Resume below the previous yield: every step is entered, so
		// backtrack into the deepest one.
		d = n - 1
		descend = false
	}
	s.started = true

	for {
		if d < 0 {
			s.done = true
			return nil, false
		}
		if d == n {
			return r.binding, true
		}
		st := &p.steps[d]

		if st.builtin {
			if descend && r.builtinPasses(st) {
				d++
				continue
			}
			descend = false
			d--
			continue
		}

		cur := &r.cursors[d]
		if st.negated {
			if descend && r.negationPasses(st, cur) {
				d++
				continue
			}
			descend = false
			d--
			continue
		}

		if descend {
			if cur.rel == nil || cur.rel.Len() == 0 {
				descend = false
				d--
				continue
			}
			r.openScan(st, cur)
		}
		if r.nextMatch(st, cur) {
			d++
			descend = true
			continue
		}
		for _, cs := range st.assign {
			r.binding[cs.slot] = Unbound
		}
		descend = false
		d--
	}
}

// openScan builds the step's probe key from the current binding and opens
// its candidate scan over the step's relation: all of it for unconstrained
// steps (and under the no-index ablation), otherwise the matching index
// bucket.
func (r *Runner) openScan(st *step, cur *stepCursor) {
	cur.key = cur.key[:0]
	for i, sl := range st.lookupSlot {
		if sl < 0 {
			cur.key = append(cur.key, st.lookupVal[i])
		} else {
			cur.key = append(cur.key, r.binding[sl])
		}
	}
	if len(st.lookupCols) == 0 || r.p.noIndex {
		cur.scan = cur.rel.Scan()
	} else {
		cur.scan = cur.rel.Probe(st.lookupCols, cur.key)
	}
}

// nextMatch pulls candidates from the cursor until one satisfies the
// step's filters, assigning the step's free slots as a side effect (the
// last candidate's values stay in the binding on failure; the caller
// resets assigned slots when the step is abandoned). Ticks once per
// candidate considered.
func (r *Runner) nextMatch(st *step, cur *stepCursor) bool {
candidates:
	for {
		t, ok := cur.scan.Next()
		if !ok {
			return false
		}
		if r.tick != nil {
			r.tick()
		}
		if r.p.noIndex {
			for i, c := range st.lookupCols {
				if t[c] != cur.key[i] {
					continue candidates
				}
			}
		}
		for _, cs := range st.assign {
			r.binding[cs.slot] = t[cs.col]
		}
		for _, cs := range st.check {
			if t[cs.col] != r.binding[cs.slot] {
				continue candidates
			}
		}
		return true
	}
}

// builtinPasses evaluates an eq/neq filter over two bound positions.
func (r *Runner) builtinPasses(st *step) bool {
	var a, b rel.Value
	if st.lookupSlot[0] < 0 {
		a = st.lookupVal[0]
	} else {
		a = r.binding[st.lookupSlot[0]]
	}
	if st.lookupSlot[1] < 0 {
		b = st.lookupVal[1]
	} else {
		b = r.binding[st.lookupSlot[1]]
	}
	return (a == b) == (st.pred == "eq")
}

// negationPasses evaluates an anti-join filter: all columns are bound
// (Compile guarantees it), so any candidate surviving the lookup-column
// filter refutes the negation. Ticks per candidate considered, stopping at
// the first refutation.
func (r *Runner) negationPasses(st *step, cur *stepCursor) bool {
	if cur.rel == nil || cur.rel.Len() == 0 {
		return true
	}
	r.openScan(st, cur)
candidates:
	for {
		t, ok := cur.scan.Next()
		if !ok {
			return true
		}
		if r.tick != nil {
			r.tick()
		}
		if r.p.noIndex {
			for i, c := range st.lookupCols {
				if t[c] != cur.key[i] {
					continue candidates
				}
			}
		}
		return false
	}
}
