package main

// Example pins the program's whole output: the Explain text and every
// answer it prints.
func Example() {
	main()
	// Output:
	// -- ancestor(alice, Y)? --
	// strategy: separable (chosen by auto)
	// 3:3: info[SEP051]: ancestor/2 is a separable recursion with 1 equivalence class(es) and 1 persistent column(s)
	//     = ancestor/2 is a separable recursion with 1 equivalence class(es)
	//         e1: columns {1}, 1 rule(s)
	//           ancestor(%h0, %h1) :- parent(%h0, %b1_0) & ancestor(%b1_0, %h1).
	//         persistent columns: {2}
	//         1 exit rule(s)
	// -: info[SEP050]: strategy applicability for query ancestor(alice, Y)
	//     = separable: yes (full selection (class fully bound))
	//       magic sets: yes (selection constants at columns {1})
	//       counting: yes (full selection (class fully bound))
	//       henschen-naqvi: yes (full selection (class fully bound))
	//       aho-ullman pushing: no (columns {1} are not stable: the recursion rewrites them)
	//       semi-naive bottom-up: yes (always applies)
	// carry1(alice);
	// seen1(V1) := carry1(V1);
	// while carry1 not empty do
	//     carry1(b10) := carry1(V1) & parent(V1, b10);
	//     carry1 := carry1 - seen1;
	//     seen1 := seen1 ∪ carry1;
	// endwhile;
	// carry2(V2) := seen1(V1) & parent(V1, V2);
	// seen2(V2) := carry2(V2);
	// ans(V2) := seen2(V2);
	//   -> bob
	//   -> carol
	//   -> dave
	//   -> erin
	//   -> frank
	//   -> heidi
	//
	// -- ancestor(X, heidi)? --
	// strategy: separable (chosen by auto)
	// 3:3: info[SEP051]: ancestor/2 is a separable recursion with 1 equivalence class(es) and 1 persistent column(s)
	//     = ancestor/2 is a separable recursion with 1 equivalence class(es)
	//         e1: columns {1}, 1 rule(s)
	//           ancestor(%h0, %h1) :- parent(%h0, %b1_0) & ancestor(%b1_0, %h1).
	//         persistent columns: {2}
	//         1 exit rule(s)
	// -: info[SEP050]: strategy applicability for query ancestor(X, heidi)
	//     = separable: yes (full selection (persistent column))
	//       magic sets: yes (selection constants at columns {2})
	//       counting: yes (full selection (persistent column))
	//       henschen-naqvi: yes (full selection (persistent column))
	//       aho-ullman pushing: yes (constants on stable columns {2})
	//       semi-naive bottom-up: yes (always applies)
	// seen1(heidi);  -- selection constants in t|pers: first loop elided
	// carry2(V1) := seen1(V2) & parent(V1, V2);
	// seen2(V1) := carry2(V1);
	// while carry2 not empty do
	//     carry2(V1) := carry2(b10) & parent(V1, b10);
	//     carry2 := carry2 - seen2;
	//     seen2 := seen2 ∪ carry2;
	// endwhile;
	// ans(V1) := seen2(V1);
	//   -> alice
	//   -> bob
	//   -> dave
	//
	// -- sg(alice, Y)? --
	// strategy: magic (chosen by auto)
	// 8:3: warning[SEP037]: sg is not a separable recursion (condition 4 of Definition 2.4): rule sg(X, Y) :- parent(U, X) & sg(U, V) & parent(V, Y).: the nonrecursive body atoms form 2 maximal connected sets; condition 4 requires one
	//     = the nonrecursive body atoms must form one connected set through shared variables; otherwise the selection constant cannot focus the whole rule (run with relaxed connectivity to evaluate anyway, §5)
	// -: info[SEP050]: strategy applicability for query sg(alice, Y)
	//     = separable: no (SEP037)
	//       magic sets: yes (selection constants at columns {1})
	//       counting: no (requires a separable recursion)
	//       henschen-naqvi: no (requires a separable recursion)
	//       aho-ullman pushing: no (columns {1} are not stable: the recursion rewrites them)
	//       semi-naive bottom-up: yes (always applies)
}
