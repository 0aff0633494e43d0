// Bill of materials: a three-column separable recursion with two
// independent equivalence classes, mirroring the paper's Example 2.4. A
// requirement req(Assembly, Site, Spec) propagates two ways:
//
//   - structurally: an assembly requires whatever its subassemblies
//     require, at the same site (class on column 1);
//   - by substitution: if a spec is required, any spec it supersedes is
//     acceptable too (class on column 3);
//   - the site column persists.
//
// Selecting on the assembly column alone is a FULL selection (that class is
// one column wide); the engine also answers partial selections on wider
// classes through the Lemma 2.1 rewrite — both shown below.
//
//	go run ./examples/parts
package main

import (
	"fmt"
	"log"
	"strings"

	"sepdl"
)

func main() {
	e := sepdl.New()
	if err := e.LoadProgram(`
		req(A, S, P) :- subpart(A, B) & req(B, S, P).
		req(A, S, P) :- req(A, S, Q) & supersedes(Q, P).
		req(A, S, P) :- spec(A, S, P).
	`); err != nil {
		log.Fatal(err)
	}
	if err := e.LoadFacts(`
		% engine -> pump -> seal; chassis -> frame
		subpart(engine, pump).  subpart(pump, seal).
		subpart(chassis, frame).
		% base specs by site
		spec(seal,  fab1, gasket_v3).
		spec(pump,  fab2, housing_v1).
		spec(frame, fab1, beam_std).
		% older revisions remain acceptable
		supersedes(gasket_v3, gasket_v2).
		supersedes(gasket_v2, gasket_v1).
		supersedes(housing_v1, housing_v0).
	`); err != nil {
		log.Fatal(err)
	}

	plan, err := e.Explain(`req(engine, S, P)?`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	show(e, `req(engine, S, P)?`)    // full selection: class {1} bound
	show(e, `req(engine, fab1, P)?`) // overconstrained: extra site filter
	show(e, `req(A, S, gasket_v1)?`) // full selection driven by class {3}
	show(e, `req(A, fab2, P)?`)      // persistent-column selection
}

func show(e *sepdl.Engine, q string) {
	res, err := e.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s  [%s, max relation %s(%d)]\n", q, res.Stats.Strategy, res.Stats.MaxRelation, res.Stats.MaxRelationSize)
	fmt.Printf("  columns: %s\n", strings.Join(res.Columns, ", "))
	for _, row := range res.Rows() {
		fmt.Println("  ->", strings.Join(row, ", "))
	}
	fmt.Println()
}
