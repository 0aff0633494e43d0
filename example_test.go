package sepdl_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sepdl"
)

// The quick-start flow: Example 1.1 of the paper, with the strategy chosen
// automatically.
func Example() {
	e := sepdl.New()
	e.LoadProgram(`
		buys(X, Y) :- friend(X, W) & buys(W, Y).
		buys(X, Y) :- idol(X, W) & buys(W, Y).
		buys(X, Y) :- perfectFor(X, Y).
	`)
	e.LoadFacts(`friend(tom, dick). idol(dick, mary). perfectFor(mary, radio).`)

	res, _ := e.Query(`buys(tom, Y)?`)
	fmt.Println(res.Stats.Strategy)
	for _, row := range res.Rows() {
		fmt.Println(row[0])
	}
	// Output:
	// separable
	// radio
}

// Forcing a strategy and reading the paper's measure (peak relation sizes).
func ExampleEngine_Query() {
	e := sepdl.New()
	e.LoadProgram(`
		buys(X, Y) :- friend(X, W) & buys(W, Y).
		buys(X, Y) :- perfectFor(X, Y).
	`)
	e.LoadFacts(`friend(a, b). friend(b, c). perfectFor(c, g).`)

	res, _ := e.Query(`buys(a, Y)?`, sepdl.WithStrategy(sepdl.Separable))
	fmt.Println("answers:", res.Len())
	fmt.Println("seen1 peak:", res.Stats.RelationSizes["seen1"])
	// Output:
	// answers: 1
	// seen1 peak: 3
}

// Explaining a query: the strategy Auto picks, the separability findings
// of sepdl check, and the program the query compiles to (Figure 3 of the
// paper for this query).
func ExampleEngine_Explain() {
	e := sepdl.New()
	e.LoadProgram(`buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).`)
	why, _ := e.Explain(`buys(tom, Y)?`)
	fmt.Print(why)
	// Output:
	// strategy: separable (chosen by auto)
	// 1:1: info[SEP051]: buys/2 is a separable recursion with 1 equivalence class(es) and 1 persistent column(s)
	//     = buys/2 is a separable recursion with 1 equivalence class(es)
	//         e1: columns {1}, 1 rule(s)
	//           buys(%h0, %h1) :- friend(%h0, %b0_0) & buys(%b0_0, %h1).
	//         persistent columns: {2}
	//         1 exit rule(s)
	// -: info[SEP050]: strategy applicability for query buys(tom, Y)
	//     = separable: yes (full selection (class fully bound))
	//       magic sets: yes (selection constants at columns {1})
	//       counting: yes (full selection (class fully bound))
	//       henschen-naqvi: yes (full selection (class fully bound))
	//       aho-ullman pushing: no (columns {1} are not stable: the recursion rewrites them)
	//       semi-naive bottom-up: yes (always applies)
	// carry1(tom);
	// seen1(V1) := carry1(V1);
	// while carry1 not empty do
	//     carry1(b00) := carry1(V1) & friend(V1, b00);
	//     carry1 := carry1 - seen1;
	//     seen1 := seen1 ∪ carry1;
	// endwhile;
	// carry2(V2) := seen1(V1) & perfectFor(V1, V2);
	// seen2(V2) := carry2(V2);
	// ans(V2) := seen2(V2);
}

// Bounding a query: a tuple budget cuts off the Magic strategy's Ω(n²)
// materialization with a typed error, and the same budget lets the
// Separable schema finish.
func ExampleEngine_QueryCtx() {
	e := sepdl.New()
	e.LoadProgram(`
		buys(X, Y) :- friend(X, W) & buys(W, Y).
		buys(X, Y) :- perfectFor(X, Y).
	`)
	for i := 0; i < 59; i++ {
		e.AddFact("friend", fmt.Sprintf("a%02d", i), fmt.Sprintf("a%02d", i+1))
	}
	for i := 0; i < 60; i++ {
		e.AddFact("perfectFor", fmt.Sprintf("a%02d", i), fmt.Sprintf("g%02d", i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	limit := sepdl.WithBudget(sepdl.Budget{MaxTuples: 500})

	_, err := e.QueryCtx(ctx, `buys(a00, Y)?`, sepdl.WithStrategy(sepdl.MagicSets), limit)
	var re *sepdl.ResourceError
	if errors.As(err, &re) {
		fmt.Println("magic cut off at limit:", re.Limit)
	}

	res, err := e.QueryCtx(ctx, `buys(a00, Y)?`, sepdl.WithStrategy(sepdl.Separable), limit)
	if err != nil {
		panic(err)
	}
	fmt.Println("separable answers:", res.Len())
	// Output:
	// magic cut off at limit: tuples
	// separable answers: 60
}
