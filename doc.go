// Package sepdl is a Datalog engine specialized for selection queries on
// recursively defined relations, reproducing "Compiling Separable
// Recursions" (Jeffrey F. Naughton, 1988).
//
// The engine evaluates function-free Datalog programs (with stratified
// negation and eq/neq builtins) and offers these query strategies:
//
//   - Separable — the paper's contribution: for recursions passing the
//     separability test (Definition 2.4), selections are answered with the
//     compiled two-loop schema of Figure 2, touching only data reachable
//     from the selection constants and building relations no wider than one
//     equivalence class. On the paper's workloads it is O(n) where Magic
//     Sets is Ω(n²) and Counting Ω(2ⁿ).
//   - MagicSets / MagicSetsSup — Generalized Magic Sets [BMSU86, BR87],
//     the standard general-purpose selection-propagating rewrite, basic and
//     supplementary.
//   - SemiNaive / Naive — plain bottom-up fixpoint evaluation.
//
// The paper's other comparison algorithms — Generalized Counting,
// Henschen–Naqvi, Aho–Ullman selection pushing, and memoized top-down
// evaluation — are library baselines in internal packages: the tests use
// them as oracles, and the engine does not serve them.
//
// Beyond per-query strategies, Engine.Materialize returns an incrementally
// maintained view (insertions and DRed deletions are runs of the
// semi-naive round loop seeded with the changed facts), and Engine.Why
// explains any derived fact with a well-founded derivation tree, whose
// supports it picks by the round that same loop first derived each fact
// in.
//
// The Auto strategy (the default) runs the separability test and picks
// Separable when it applies, falling back to Magic Sets for other selection
// queries and to semi-naive evaluation for unconstrained queries — the
// architecture the paper proposes for a recursive query processor.
//
// # Quick start
//
//	e := sepdl.New()
//	e.LoadProgram(`
//	    buys(X, Y) :- friend(X, W) & buys(W, Y).
//	    buys(X, Y) :- idol(X, W) & buys(W, Y).
//	    buys(X, Y) :- perfectFor(X, Y).
//	`)
//	e.LoadFacts(`friend(tom, dick). idol(dick, mary). perfectFor(mary, radio).`)
//	res, err := e.Query(`buys(tom, Y)?`)
//	// res.Rows() == [][]string{{"radio"}}, res.Strategy == sepdl.Separable
//
// Programs use Prolog-ish syntax: variables start upper-case, '&' or ','
// joins body atoms, rules end with '.', queries optionally end with '?'.
package sepdl
