// Genealogy: classic deductive-database queries over a family tree. The
// ancestor recursion is separable (one class on the descendant column), so
// "who are alice's ancestors?" runs through the paper's algorithm; the
// same-generation recursion is NOT separable (the up and down parts violate
// condition 4's connectivity), so the engine's Auto strategy falls back to
// Generalized Magic Sets for it — demonstrating the architecture the paper
// proposes, where Separable supplements rather than replaces the general
// algorithm.
//
//	go run ./examples/genealogy
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
		% ancestry: separable (one class on column 1).
		ancestor(X, Y) :- parent(X, Y).
		ancestor(X, Y) :- parent(X, W) & ancestor(W, Y).

		% same generation: not separable (condition 4).
		sg(X, Y) :- sibling(X, Y).
		sg(X, Y) :- parent(U, X) & sg(U, V) & parent(V, Y).
	`); err != nil {
		log.Fatal(err)
	}
	// parent(child, parent) over three generations.
	if err := e.LoadFacts(`
		parent(alice, bob).    parent(alice, carol).
		parent(bob, dave).     parent(bob, erin).
		parent(carol, frank).
		parent(gina, carol).
		parent(dave, heidi).
		sibling(dave, frank).  sibling(frank, dave).
		sibling(bob, carol).   sibling(carol, bob).
	`); err != nil {
		log.Fatal(err)
	}

	queries := []string{
		`ancestor(alice, Y)?`, // all of alice's ancestors
		`ancestor(X, heidi)?`, // everyone descended from heidi... (column 2 selection)
		`sg(alice, Y)?`,       // same generation as alice -> magic sets
	}
	for _, q := range queries {
		plan, err := e.Explain(q)
		if err != nil {
			log.Fatal(err)
		}
		res, err := e.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- %s --\n%s", q, plan)
		for _, row := range res.Rows() {
			fmt.Println("  ->", strings.Join(row, ", "))
		}
		fmt.Println()
	}
}
