package eval

import (
	"sepdl/internal/ast"
	"sepdl/internal/rel"
	"sepdl/internal/symtab"
)

// AnswerSink filters full-arity tuples against a query atom (constants and
// repeated variables) and projects survivors onto the query's distinct
// variables in first-occurrence order. Strategies that assemble answers
// tuple by tuple (Separable, Counting, Henschen–Naqvi) share it.
type AnswerSink struct {
	out      *rel.Relation
	row      rel.Tuple // projection buffer; Insert copies it
	varPos   []int
	consts   []int
	constVal []rel.Value
	eqPairs  [][2]int
}

// NewAnswerSink builds a sink for query q, interning its constants in syms.
func NewAnswerSink(q ast.Atom, syms *symtab.Table) *AnswerSink {
	s := &AnswerSink{}
	first := make(map[string]int)
	for i, t := range q.Args {
		if t.IsVar() {
			if j, ok := first[t.Name]; ok {
				s.eqPairs = append(s.eqPairs, [2]int{j, i})
			} else {
				first[t.Name] = i
				s.varPos = append(s.varPos, i)
			}
		} else {
			s.consts = append(s.consts, i)
			s.constVal = append(s.constVal, syms.Intern(t.Name))
		}
	}
	s.out = rel.New(len(s.varPos))
	s.row = make(rel.Tuple, len(s.varPos))
	return s
}

// Add filters full and, if it matches the query, inserts its projection
// into the answer relation.
func (s *AnswerSink) Add(full rel.Tuple) {
	for i, p := range s.consts {
		if full[p] != s.constVal[i] {
			return
		}
	}
	for _, pq := range s.eqPairs {
		if full[pq[0]] != full[pq[1]] {
			return
		}
	}
	for i, p := range s.varPos {
		s.row[i] = full[p]
	}
	s.out.Insert(s.row)
}

// Result returns the accumulated answer relation.
func (s *AnswerSink) Result() *rel.Relation { return s.out }

// RoundSink is the fixpoint evaluator's sole materialization point: rule
// bodies stream their head tuples into it and only genuinely new tuples —
// absent from the stratum's growing total — are materialized into the
// round's delta. The total is frozen for the duration of a round (it is
// only extended at the round boundary, by folding the delta in), so the
// membership check is exact and the streamed delta is byte-for-byte the
// relation the old materialize-then-difference pipeline produced, in the
// same insertion order — without ever holding the round's full emission
// multiset, whose duplicates dominate peak memory on dense inputs.
//
// The materialize flag (ablation, driven by Options.MaterializeRounds)
// restores the old pipeline: every emission is inserted into an
// intermediate relation and the delta is computed by differencing
// afterwards.
type RoundSink struct {
	total   *rel.Relation
	next    *rel.Relation
	all     *rel.Relation // materializing ablation: the round's raw output
	emitted int
}

// NewRoundSink starts a round's sink over the stratum total for one
// predicate. The caller must not mutate total until Delta has been folded
// in.
func NewRoundSink(total *rel.Relation, materialize bool) *RoundSink {
	s := &RoundSink{total: total, next: rel.New(total.Arity())}
	if materialize {
		s.all = rel.New(total.Arity())
	}
	return s
}

// Add streams one emitted head tuple into the round. The tuple may be a
// reused buffer; it is cloned if and when it is materialized.
func (s *RoundSink) Add(t rel.Tuple) {
	s.emitted++
	if s.all != nil {
		s.all.Insert(t)
		return
	}
	if !s.total.Contains(t) {
		s.next.Insert(t)
	}
}

// Delta returns the round's delta: the new tuples in emission order. Call
// it once, at the round boundary.
func (s *RoundSink) Delta() *rel.Relation {
	if s.all != nil {
		return s.all.Difference(s.total)
	}
	return s.next
}

// Emitted reports the raw number of head tuples streamed into the sink —
// the round's join fan-out, duplicates included.
func (s *RoundSink) Emitted() int { return s.emitted }

// IntermediateLen reports how many tuples the sink materialized outside
// the totals: the streamed delta alone, or, under the ablation, the raw
// round output on top of it. It feeds the peak-intermediate-bytes metric;
// call it after Delta.
func (s *RoundSink) IntermediateLen(delta *rel.Relation) int {
	n := delta.Len()
	if s.all != nil {
		n += s.all.Len()
	}
	return n
}
