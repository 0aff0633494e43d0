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
// bodies stream their head tuples into it, and it inserts each one
// straight into the stratum's total, which deduplicates it — one hash
// probe per emission, one copy per new tuple. The round's delta is the
// range of rows the round appended, read as a window of the total (see
// rel.Relation.Window): the new tuples in emission order, the relation a
// materialize-then-difference pipeline produces, without holding the
// round's full emission multiset, whose duplicates dominate peak memory on
// dense inputs. Since the total grows during the round, rule bodies must
// read windows of the totals frozen at the round start, never the totals
// themselves.
type RoundSink struct {
	total   *rel.Relation
	lo      int // total's length when the round began
	emitted int
}

// NewRoundSink starts a round's sink over the stratum total for one
// predicate. Nothing but the sink may write to total until Delta has been
// read. The second argument is ignored; it goes when ROADMAP 3(a) drops
// the probe.
func NewRoundSink(total *rel.Relation, _ bool) *RoundSink {
	return &RoundSink{total: total, lo: total.Len()}
}

// Add streams one emitted head tuple into the round. The tuple may be a
// reused buffer; its values are copied if and when it is new.
func (s *RoundSink) Add(t rel.Tuple) {
	s.emitted++
	s.total.Insert(t)
}

// Delta returns the round's delta: the new tuples in emission order, as a
// window of the total over the rows the round appended. Call it once, at
// the round boundary; the window is valid while the total only appends.
func (s *RoundSink) Delta() *rel.Relation {
	return s.total.Window(s.lo, s.total.Len())
}

// Emitted reports the raw number of head tuples streamed into the sink —
// the round's join fan-out, duplicates included.
func (s *RoundSink) Emitted() int { return s.emitted }
