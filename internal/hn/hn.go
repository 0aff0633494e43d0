// Package hn implements the iterative query/answer evaluation of Henschen
// and Naqvi [HN84] for selection queries on linear recursions, as
// characterized in the paper's related-work discussion (§1): the method
// enumerates rule strings — sequences of recursive-rule applications — and
// evaluates each string separately, pushing the selection constant through
// the string's driver side and composing the answer side per string.
//
// A rule string is a derivation path of the Generalized Counting Method,
// so the strings are enumerated by counting.Strings, and each string's
// answer side is the second loop of Figure 2 over the count rows
// (core.AnswerSeeded), where strings are kept apart by their path tag, as
// a batch's queries are by their seed index.
//
// Two defects the paper points out are reproduced faithfully:
//
//   - With multiple recursive rules in the bound class, the number of rule
//     strings explodes: Ω(2ⁿ) on Example 1.1.
//   - On cyclic data a string's binding set never becomes empty, so string
//     enumeration does not terminate; Options.MaxDepth turns that into
//     ErrDiverged.
//
// Like the counting package, the implementation is scoped to full
// selections on separable-shaped linear recursions, which covers every
// comparison in the paper.
package hn

import (
	"errors"
	"fmt"

	"sepdl/internal/ast"
	"sepdl/internal/budget"
	"sepdl/internal/core"
	"sepdl/internal/counting"
	"sepdl/internal/database"
	"sepdl/internal/rel"
	"sepdl/internal/stats"
)

// ErrDiverged reports string enumeration exceeding the depth bound, which
// happens exactly when the driving relations are cyclic from the query
// constant.
var ErrDiverged = errors.New("hn: rule-string enumeration exceeded its depth/work bound (cyclic data?)")

// ErrUnsupported reports a query outside the method's scope here.
var ErrUnsupported = errors.New("hn: unsupported query for Henschen-Naqvi (needs a full selection on a separable-shaped recursion)")

// Options configure Answer.
type Options struct {
	// Collector receives the number of rule strings processed and the
	// total bindings materialized across strings.
	Collector *stats.Collector
	// MaxDepth bounds the length of enumerated rule strings; 0 means
	// DistinctConstants+1.
	MaxDepth int
	// Analysis supplies a precomputed separability analysis.
	Analysis *core.Analysis
	// Budget, when non-nil, is checked per string length and at
	// join-inner-loop granularity; exceeding it aborts with a
	// *budget.ResourceError.
	Budget *budget.Budget
}

// Answer evaluates the selection query q with the Henschen-Naqvi iterative
// method. When it terminates, the result matches semi-naive evaluation.
func Answer(prog *ast.Program, db *database.Database, q ast.Atom, opts Options) (*rel.Relation, error) {
	var count *rel.Relation
	ans, tagged, err := core.AnswerSeeded(prog, db, q, core.EvalOptions{Collector: opts.Collector, Analysis: opts.Analysis, Budget: opts.Budget},
		func(driver *core.Class, db *database.Database, seed rel.Tuple) (_ *rel.Relation, _ int, err error) {
			// A string longer than MaxDepth diverges: its rows sit at
			// level MaxDepth+1.
			depth := opts.MaxDepth
			if depth == 0 {
				depth = db.DistinctConstants() + 1
			}
			count, err = counting.Strings(driver, db, seed, counting.Options{Collector: opts.Collector, MaxLevels: depth + 1, Budget: opts.Budget}, ErrDiverged)
			return count, counting.TagW, err
		})
	if errors.Is(err, core.ErrNotFullSelection) {
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	if err != nil {
		return nil, err
	}
	// The strings are count's distinct path tags: a string binds all of
	// its rows at once, and its answers are seen_2's rows with its tag.
	paths := rel.New(counting.TagW)
	for i := range count.Len() {
		paths.Insert(count.Row(i)[:counting.TagW])
	}
	opts.Collector.Observe("hn_strings", paths.Len())
	opts.Collector.Observe("hn_bindings", count.Len()+tagged)
	return ans, nil
}
