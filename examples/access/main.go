// Access control: recursive group membership plus stratified negation —
// the engine substrate beyond the paper's pure-Horn class. A user can read
// a document if some group they (transitively) belong to was granted
// access and the grant was not revoked; "orphaned" documents have no
// reader at all.
//
// The member recursion is separable (one class on the member column), so
// membership selections compile through the paper's algorithm, while the
// negation-using predicates evaluate stratum by stratum.
//
//	go run ./examples/access
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
		% transitive group membership: separable.
		member(U, G) :- belongs(U, G).
		member(U, G) :- belongs(U, H) & member(H, G).

		% effective grants under revocation: one negation stratum.
		canRead(U, D) :- member(U, G) & grant(G, D) & not revoked(G, D).
		canRead(U, D) :- owner(U, D).

		% documents nobody can read: a second negation stratum.
		readable(D) :- canRead(U, D).
		orphaned(D) :- doc(D) & not readable(D).
	`); err != nil {
		log.Fatal(err)
	}
	if err := e.LoadFacts(`
		belongs(amy, eng).   belongs(bob, eng).   belongs(cara, sales).
		belongs(eng, staff). belongs(sales, staff).
		grant(eng, design).  grant(staff, handbook). grant(sales, forecast).
		revoked(sales, forecast).
		owner(cara, notes).
		doc(design). doc(handbook). doc(forecast). doc(notes). doc(archive).
	`); err != nil {
		log.Fatal(err)
	}

	plan, err := e.Explain(`member(amy, G)?`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	show(e, `member(amy, G)?`)       // separable: which groups is amy in?
	show(e, `canRead(amy, D)?`)      // negation stratum 1
	show(e, `canRead(U, forecast)?`) // revoked grant: only via ownership
	show(e, `orphaned(D)?`)          // negation stratum 2
}

func show(e *sepdl.Engine, q string) {
	res, err := e.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s  [strategy: %s]\n", q, res.Stats.Strategy)
	for _, row := range res.Rows() {
		fmt.Println("  ->", strings.Join(row, ", "))
	}
	if res.Len() == 0 {
		fmt.Println("  (no answers)")
	}
	fmt.Println()
}
