// Package counting implements the Generalized Counting Method
// [BMSU86, BR87, SZ86] for selection queries on linear recursions, in the
// form the paper analyses in §4:
//
//	count(1, 1, 1, tom).
//	count(i+1, 2j, 2k, W)   :- count(i, j, k, X) & friend(X, W).
//	count(i+1, 2j+1, 2k, W) :- count(i, j, k, X) & idol(X, W).
//
// The count phase (Strings) pushes the selection constant down through
// the recursive rules that move the bound columns, tagging every reached
// binding with its level and its derivation path, the rule string that
// reached it; with p rules the path distinguishes up to p^i derivations
// at level i, which is the Ω(pⁿ) blowup of Lemma 4.3. The answer phase is
// the second loop of Figure 2 over the tagged count rows
// (core.AnswerSeeded): strings are kept apart by their tag, as a batch's
// queries are by their seed index.
//
// The method is scoped as in the paper's comparison: the query must be a
// full selection on a separable-shaped linear recursion (the count phase
// needs the bound columns to propagate to themselves), and it diverges on
// data cyclic in the driving relations — Options.MaxLevels turns that into
// ErrDiverged.
package counting

import (
	"errors"
	"fmt"
	"math"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/conj"
	"sepdl/internal/core"
	"sepdl/internal/database"
	"sepdl/internal/eval"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// ErrDiverged reports that the count phase exceeded MaxLevels, which on
// cyclic data it will: the Generalized Counting Method does not terminate
// there (§1, [HN84] shares the defect).
var ErrDiverged = errors.New("counting: count phase exceeded its level/work bound (cyclic data?)")

// ErrPathOverflow reports a derivation-path index exceeding 64 bits — the
// exponential blowup the method is being measured for, hit concretely.
var ErrPathOverflow = errors.New("counting: derivation-path index overflowed 64 bits")

// ErrUnsupported reports a query outside the method's scope here (partial
// selections and non-separable recursions).
var ErrUnsupported = errors.New("counting: unsupported query for the counting method (needs a full selection on a separable-shaped recursion)")

// TagW is the width of a count row's tag: the level, then the derivation
// path as two values, high half first.
const TagW = 3

// maxRows bounds the count relation. On cyclic data the strings multiply
// every level, so this usually trips long before the level bound; both
// report divergence.
const maxRows = 1 << 20

// Options configure Answer.
type Options struct {
	// Collector receives the sizes of count and the per-tag answer
	// relation.
	Collector *stats.Collector
	// MaxLevels bounds the count phase: a count row at level MaxLevels
	// diverges. 0 means DistinctConstants+1, the longest simple path any
	// acyclic chase can have.
	MaxLevels int
	// Analysis supplies a precomputed separability analysis.
	Analysis *core.Analysis
	// Budget, when non-nil, is checked at every count/answer level and at
	// join-inner-loop granularity; exceeding it aborts with a
	// *budget.ResourceError. On the paper's adversarial inputs the count
	// phase is exactly where the Ω(2ⁿ) blowup materializes, so a tuple
	// budget usually trips here first.
	Budget *budget.Budget
}

// Answer evaluates the selection query q with the Generalized Counting
// Method. The result matches core.Answer and semi-naive evaluation whenever
// the method terminates.
func Answer(prog *ast.Program, db *database.Database, q ast.Atom, opts Options) (*rel.Relation, error) {
	var count *rel.Relation
	ans, tagged, err := core.AnswerSeeded(prog, db, q, core.EvalOptions{Collector: opts.Collector, Analysis: opts.Analysis, Budget: opts.Budget},
		func(driver *core.Class, db *database.Database, seed rel.Tuple) (_ *rel.Relation, _ int, err error) {
			count, err = Strings(driver, db, seed, opts, ErrDiverged)
			return count, TagW, err
		})
	if errors.Is(err, core.ErrNotFullSelection) {
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	if err != nil {
		return nil, err
	}
	opts.Collector.Observe("count", count.Len())
	opts.Collector.Observe("count_ans", tagged)
	return ans, nil
}

// Strings enumerates the rule strings of the driver class from seed,
// breadth first, into the count relation: one row (level, path, driver
// values) per string and value the string binds. The path spells the
// string's rules as base-(p+1) digits 1..p, so distinct strings keep
// distinct tags; the relation drops a row its string already binds. A
// nil driver (a selection on persistent columns) has only the empty
// string. Each round expands one level, holding one transition runner per
// rule. A round at level opts.MaxLevels (0: DistinctConstants+1), or more
// than maxRows rows, fail with diverged.
func Strings(driver *core.Class, db *database.Database, seed rel.Tuple, opts Options, diverged error) (*rel.Relation, error) {
	count := rel.New(TagW + len(seed))
	row := make(rel.Tuple, count.Arity())
	copy(row[TagW:], seed)
	count.Insert(row)
	if driver == nil {
		return count, nil
	}
	src := conj.DBSource(db.Relation)
	runners := make([]*conj.TransitionRunner, len(driver.Rules))
	for i, r := range driver.Rules {
		tr, err := conj.NewTransition(r.Conj, driver.HeadVars, r.BodyVars, db.Syms.Intern)
		if err != nil {
			return nil, err
		}
		tr.SetTick(opts.Budget.TickFunc())
		runners[i] = tr.NewRunner(src)
	}
	levels := opts.MaxLevels
	if levels == 0 {
		levels = db.DistinctConstants() + 1
	}
	base := uint64(len(runners)) + 1

	var sink *eval.RoundSink
	emit := func(out rel.Tuple) {
		copy(row[TagW:], out)
		sink.Add(row)
	}
	var rounds, inserted, peak int
	defer func() {
		opts.Collector.AddRounds(rounds, inserted, int64(peak)*int64(count.Arity())*rel.ValueBytes)
	}()
	for carry := count.Window(0, 1); !carry.Empty(); {
		if level := int(carry.Row(0)[0]); level >= levels {
			return nil, fmt.Errorf("%w (level %d)", diverged, level)
		}
		opts.Budget.Round()
		rounds++
		sink = eval.NewRoundSink(count, false)
		for i := range carry.Len() {
			t := carry.Row(i)
			path := uint64(uint32(t[1]))<<32 | uint64(uint32(t[2]))
			for j, run := range runners {
				if path > (math.MaxUint64-uint64(j)-1)/base {
					return nil, ErrPathOverflow
				}
				next := path*base + uint64(j) + 1
				row[0], row[1], row[2] = t[0]+1, rel.Value(next>>32), rel.Value(next)
				run.Apply(t[TagW:], emit)
			}
		}
		carry = sink.Delta()
		inserted += carry.Len()
		peak = max(peak, carry.Len())
		opts.Budget.AddDerived(carry.Len(), count.Arity())
		if count.Len() > maxRows {
			return nil, fmt.Errorf("%w (count rows exceeded %d)", diverged, maxRows)
		}
	}
	return count, nil
}
