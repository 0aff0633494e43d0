// Quickstart: load the paper's Example 1.1 recursion, ask who tom ends up
// buying for, and let the engine pick the Separable strategy automatically.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"sepdl"
)

func main() {
	e := sepdl.New()

	// Example 1.1: a person buys a product if it is perfect for them, or
	// if a friend or idol bought it.
	err := e.LoadProgram(`
		buys(X, Y) :- friend(X, W) & buys(W, Y).
		buys(X, Y) :- idol(X, W) & buys(W, Y).
		buys(X, Y) :- perfectFor(X, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	err = e.LoadFacts(`
		friend(tom, dick).  friend(dick, harry).  friend(sue, tom).
		idol(tom, mary).    idol(mary, harry).
		perfectFor(harry, radio).  perfectFor(dick, tv).  perfectFor(mary, hat).
		perfectFor(alice, car).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// How will buys(tom, Y)? run? The recursion is separable (one
	// equivalence class on the person column, the product column
	// persists), so Auto picks the Separable strategy, and Explain prints
	// the program the query compiles to.
	plan, err := e.Explain(`buys(tom, Y)?`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	res, err := e.Query(`buys(tom, Y)?`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buys(tom, Y)?  [strategy: %s]\n", res.Stats.Strategy)
	for _, row := range res.Rows() {
		fmt.Println("  Y =", strings.Join(row, ", "))
	}

	// The other direction — who buys a radio? — selects on the persistent
	// column; still a full selection, still the Separable algorithm.
	res, err = e.Query(`buys(X, radio)?`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbuys(X, radio)?  [strategy: %s]\n", res.Stats.Strategy)
	for _, row := range res.Rows() {
		fmt.Println("  X =", strings.Join(row, ", "))
	}
}
