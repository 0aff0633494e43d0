// Package datagen builds the synthetic databases and programs of the
// paper's examples and §4 lower-bound constructions, plus generic graph
// generators for average-case experiments. All generators are
// deterministic given their arguments (random ones take an explicit seed).
package datagen

import (
	"fmt"
	"math/rand"

	"sepdl/internal/ast"
	"sepdl/internal/database"
	"sepdl/internal/parser"
)

// Name formats the i-th constant of a family, e.g. Name("a", 3) = "a3".
func Name(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// Chain adds pred(prefix1, prefix2), ..., pred(prefix{n-1}, prefix{n}).
func Chain(db *database.Database, pred, prefix string, n int) {
	for i := 1; i < n; i++ {
		db.AddFact(pred, Name(prefix, i), Name(prefix, i+1))
	}
}

// Cycle adds the chain plus the closing edge pred(prefix{n}, prefix1).
func Cycle(db *database.Database, pred, prefix string, n int) {
	Chain(db, pred, prefix, n)
	db.AddFact(pred, Name(prefix, n), Name(prefix, 1))
}

// RandomGraph adds edges random edges over nodes constants prefix1..prefixN
// using the given seed.
func RandomGraph(db *database.Database, pred, prefix string, nodes, edges int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edges; i++ {
		db.AddFact(pred, Name(prefix, 1+rng.Intn(nodes)), Name(prefix, 1+rng.Intn(nodes)))
	}
}

// Example11Program returns the recursion of Example 1.1.
func Example11Program() *ast.Program {
	p, err := parser.Program(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`)
	if err != nil {
		panic(err)
	}
	return p
}

// Example12Program returns the recursion of Example 1.2.
func Example12Program() *ast.Program {
	p, err := parser.Program(`
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
`)
	if err != nil {
		panic(err)
	}
	return p
}

// Example11DB builds the §4 worst case for Generalized Counting on
// Example 1.1: friend and idol each hold the chain a1→…→an (identical when
// shared), and perfectFor(an, item) closes it. The query of interest is
// buys(a1, Y)?.
func Example11DB(n int, shared bool) *database.Database {
	db := database.New()
	Chain(db, "friend", "a", n)
	if shared {
		Chain(db, "idol", "a", n)
	}
	db.AddFact("perfectFor", Name("a", n), "item")
	return db
}

// Example12DB builds the §4 worst case for Magic Sets on Example 1.2:
// friend chain a1→…→an, cheaper chain b{n}→…→b1 stored as
// cheaper(b_{i}, b_{i+1}) (b_i is cheaper than b_{i+1}), and
// perfectFor(an, bn). Magic Sets materializes all n² buys(a_i, b_j) tuples
// on buys(a1, Y)?; Separable stays O(n).
func Example12DB(n int) *database.Database {
	db := database.New()
	Chain(db, "friend", "a", n)
	Chain(db, "cheaper", "b", n)
	db.AddFact("perfectFor", Name("a", n), Name("b", n))
	return db
}

// LeftLinearProgram returns the Lemma 4.2/4.3 recursion with p recursive
// rules and recursive-predicate arity k:
//
//	t(X1,…,Xk) :- a_i(X1, W) & t(W, X2,…,Xk).   for i = 1..p
//	t(X1,…,Xk) :- t0(X1,…,Xk).
func LeftLinearProgram(k, p int) *ast.Program {
	if k < 1 || p < 1 {
		panic(fmt.Sprintf("datagen: LeftLinearProgram(%d, %d)", k, p))
	}
	headArgs := make([]ast.Term, k)
	for i := range headArgs {
		headArgs[i] = ast.V(Name("X", i+1))
	}
	bodyArgs := make([]ast.Term, k)
	bodyArgs[0] = ast.V("W")
	copy(bodyArgs[1:], headArgs[1:])
	prog := &ast.Program{}
	for i := 1; i <= p; i++ {
		prog.Rules = append(prog.Rules, ast.Rule{
			Head: ast.Atom{Pred: "t", Args: headArgs},
			Body: []ast.Atom{
				{Pred: Name("a", i), Args: []ast.Term{ast.V("X1"), ast.V("W")}},
				{Pred: "t", Args: bodyArgs},
			},
		})
	}
	prog.Rules = append(prog.Rules, ast.Rule{
		Head: ast.Atom{Pred: "t", Args: headArgs},
		Body: []ast.Atom{{Pred: "t0", Args: headArgs}},
	})
	return prog
}

// Lemma42DB builds the database of Lemma 4.2: a1 holds the chain
// c1→…→cn, a2..ap are empty, and t0 holds all n^{k-1} tuples
// (c_i, c_{j2},…,c_{jk}) for every c_i — i.e. the full n^k t0 relation.
// Magic Sets then copies Ω(n^k) tuples into the rewritten t on t(c1, Ȳ)?.
// For tractable test sizes the full cross product is materialized, so keep
// n^k modest.
func Lemma42DB(n, k, p int) *database.Database {
	db := database.New()
	Chain(db, "a1", "c", n)
	for i := 2; i <= p; i++ {
		// a_i empty: mention the predicate so arity checks still pass by
		// creating the empty relation.
		db.Ensure(Name("a", i), 2)
	}
	tuple := make([]string, k)
	var fill func(pos int)
	fill = func(pos int) {
		if pos == k {
			db.AddFact("t0", tuple...)
			return
		}
		for i := 1; i <= n; i++ {
			tuple[pos] = Name("c", i)
			fill(pos + 1)
		}
	}
	fill(0)
	return db
}

// Lemma43DB builds the database of Lemma 4.3: a1..ap all hold the same
// chain c1→…→cn; t0 holds one closing tuple (c_n, item,…,item) so the
// query has an answer.
func Lemma43DB(n, k, p int) *database.Database {
	db := database.New()
	for i := 1; i <= p; i++ {
		Chain(db, Name("a", i), "c", n)
	}
	t0 := make([]string, k)
	t0[0] = Name("c", n)
	for i := 1; i < k; i++ {
		t0[i] = "item"
	}
	db.AddFact("t0", t0...)
	return db
}

// MultiClassPrefix names the constant family of class i in MultiClassDB;
// the chain of class i runs MultiClassPrefix(i)+"1" → … → +"n".
func MultiClassPrefix(i int) string { return fmt.Sprintf("c%dv", i) }

// MultiClassProgram returns a separable recursion with c independent
// equivalence classes, one per column — the §5 query family Separable's
// product form is benchmarked on:
//
//	t(X1,…,Xc) :- e_i(X_i, W) & t(…, W at position i, …).   for i = 1..c
//	t(X1,…,Xc) :- t0(X1,…,Xc).
//
// Class i touches only column i, so on a selection query every non-driver
// class contributes an independent closure and the answer is their
// product.
func MultiClassProgram(c int) *ast.Program {
	if c < 2 {
		panic(fmt.Sprintf("datagen: MultiClassProgram(%d)", c))
	}
	headArgs := make([]ast.Term, c)
	for i := range headArgs {
		headArgs[i] = ast.V(Name("X", i+1))
	}
	prog := &ast.Program{}
	for i := 1; i <= c; i++ {
		bodyArgs := make([]ast.Term, c)
		copy(bodyArgs, headArgs)
		bodyArgs[i-1] = ast.V("W")
		prog.Rules = append(prog.Rules, ast.Rule{
			Head: ast.Atom{Pred: "t", Args: headArgs},
			Body: []ast.Atom{
				{Pred: Name("e", i), Args: []ast.Term{ast.V(Name("X", i)), ast.V("W")}},
				{Pred: "t", Args: bodyArgs},
			},
		})
	}
	prog.Rules = append(prog.Rules, ast.Rule{
		Head: ast.Atom{Pred: "t", Args: headArgs},
		Body: []ast.Atom{{Pred: "t0", Args: headArgs}},
	})
	return prog
}

// MultiClassDB pairs MultiClassProgram(c) with one chain of length n per
// class (e_i over MultiClassPrefix(i) constants) and a single exit tuple
// at the chain ends. On the query t(c1v1, Y2, …, Yc)? phase 1 walks chain
// 1 forward, the exit tuple seeds phase 2, and each remaining class walks
// its own chain backward — n^(c-1) answers, the product the Separable
// evaluator assembles from per-class closures.
func MultiClassDB(n, c int) *database.Database {
	db := database.New()
	exit := make([]string, c)
	for i := 1; i <= c; i++ {
		Chain(db, Name("e", i), MultiClassPrefix(i), n)
		exit[i-1] = Name(MultiClassPrefix(i), n)
	}
	db.AddFact("t0", exit...)
	return db
}

// MultiClassQuery returns the driver-class selection query for
// MultiClassDB: t(c1v1, Y2, …, Yc)?.
func MultiClassQuery(c int) string {
	q := "t(" + Name(MultiClassPrefix(1), 1)
	for i := 2; i <= c; i++ {
		q += ", " + Name("Y", i)
	}
	return q + ")?"
}

// DisconnectedProgram returns the §5 example used to show what condition 4
// buys: t(X,Y) :- a(X,W) & t(W,Z) & b(Z,Y) with the a and b parts
// unconnected.
func DisconnectedProgram() *ast.Program {
	p, err := parser.Program(`
t(X, Y) :- a(X, W) & t(W, Z) & b(Z, Y).
t(X, Y) :- t0(X, Y).
`)
	if err != nil {
		panic(err)
	}
	return p
}

// DisconnectedDB pairs DisconnectedProgram with chains on both sides: a
// chain of length n from x1, a b chain of length n, and t0 linking the a
// side to the b side at every a node.
func DisconnectedDB(n int) *database.Database {
	db := database.New()
	Chain(db, "a", "x", n)
	Chain(db, "b", "m", n)
	for i := 1; i <= n; i++ {
		db.AddFact("t0", Name("x", i), Name("m", 1))
	}
	return db
}

// RandomBuysDB builds a random instance for the Example 1.1/1.2 programs:
// sparse random friend/idol/cheaper graphs over n people and n goods, with
// about density*n edges each, and n random perfectFor links.
func RandomBuysDB(n int, density float64, seed int64) *database.Database {
	rng := rand.New(rand.NewSource(seed))
	db := database.New()
	edges := int(float64(n) * density)
	add := func(pred, prefix string) {
		for i := 0; i < edges; i++ {
			db.AddFact(pred, Name(prefix, 1+rng.Intn(n)), Name(prefix, 1+rng.Intn(n)))
		}
	}
	add("friend", "p")
	add("idol", "p")
	add("cheaper", "g")
	for i := 0; i < n; i++ {
		db.AddFact("perfectFor", Name("p", 1+rng.Intn(n)), Name("g", 1+rng.Intn(n)))
	}
	return db
}

// DetectionProgram builds a separable recursion with r recursive rules,
// recursive arity k, and l-atom rule bodies, for timing the §3.1 detection
// algorithms as the rule parameters grow. All rules fall into one class on
// column 1; each body is a connected chain of l-1 binary atoms plus the
// recursive atom.
func DetectionProgram(r, k, l int) *ast.Program {
	if r < 1 || k < 1 || l < 2 {
		panic(fmt.Sprintf("datagen: DetectionProgram(%d, %d, %d)", r, k, l))
	}
	headArgs := make([]ast.Term, k)
	for i := range headArgs {
		headArgs[i] = ast.V(Name("X", i+1))
	}
	prog := &ast.Program{}
	for ri := 1; ri <= r; ri++ {
		bodyArgs := make([]ast.Term, k)
		copy(bodyArgs, headArgs)
		last := Name("W", l-1)
		bodyArgs[0] = ast.V(last)
		var body []ast.Atom
		prev := "X1"
		for li := 1; li < l; li++ {
			next := Name("W", li)
			body = append(body, ast.Atom{Pred: fmt.Sprintf("e%d_%d", ri, li), Args: []ast.Term{ast.V(prev), ast.V(next)}})
			prev = next
		}
		body = append(body, ast.Atom{Pred: "t", Args: bodyArgs})
		prog.Rules = append(prog.Rules, ast.Rule{Head: ast.Atom{Pred: "t", Args: headArgs}, Body: body})
	}
	prog.Rules = append(prog.Rules, ast.Rule{
		Head: ast.Atom{Pred: "t", Args: headArgs},
		Body: []ast.Atom{{Pred: "t0", Args: headArgs}},
	})
	return prog
}
