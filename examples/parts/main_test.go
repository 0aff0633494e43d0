package main

// Example pins the program's whole output: the Explain text and every
// answer it prints.
func Example() {
	main()
	// Output:
	// strategy: separable (chosen by auto)
	// 2:3: info[SEP051]: req/3 is a separable recursion with 2 equivalence class(es) and 1 persistent column(s)
	//     = req/3 is a separable recursion with 2 equivalence class(es)
	//         e1: columns {1}, 1 rule(s)
	//           req(%h0, %h1, %h2) :- subpart(%h0, %b0_0) & req(%b0_0, %h1, %h2).
	//         e2: columns {3}, 1 rule(s)
	//           req(%h0, %h1, %h2) :- req(%h0, %h1, %b1_0) & supersedes(%b1_0, %h2).
	//         persistent columns: {2}
	//         1 exit rule(s)
	// -: info[SEP050]: strategy applicability for query req(engine, S, P)
	//     = separable: yes (full selection (class fully bound))
	//       magic sets: yes (selection constants at columns {1})
	//       counting: yes (full selection (class fully bound))
	//       henschen-naqvi: yes (full selection (class fully bound))
	//       aho-ullman pushing: no (columns {1} are not stable: the recursion rewrites them)
	//       semi-naive bottom-up: yes (always applies)
	// carry1(engine);
	// seen1(V1) := carry1(V1);
	// while carry1 not empty do
	//     carry1(b00) := carry1(V1) & subpart(V1, b00);
	//     carry1 := carry1 - seen1;
	//     seen1 := seen1 ∪ carry1;
	// endwhile;
	// carry2(V2, V3) := seen1(V1) & spec(V1, V2, V3);
	// seen2(V2, V3) := carry2(V2, V3);
	// while carry2 not empty do
	//     carry2(V2, V3) := carry2(V2, b10) & supersedes(b10, V3);
	//     carry2 := carry2 - seen2;
	//     seen2 := seen2 ∪ carry2;
	// endwhile;
	// ans(V2, V3) := seen2(V2, V3);
	//
	// req(engine, S, P)?  [separable, max relation ans(5)]
	//   columns: S, P
	//   -> fab1, gasket_v1
	//   -> fab1, gasket_v2
	//   -> fab1, gasket_v3
	//   -> fab2, housing_v0
	//   -> fab2, housing_v1
	//
	// req(engine, fab1, P)?  [separable, max relation seen2(11)]
	//   columns: P
	//   -> gasket_v1
	//   -> gasket_v2
	//   -> gasket_v3
	//
	// req(A, S, gasket_v1)?  [separable, max relation ans(3)]
	//   columns: A, S
	//   -> engine, fab1
	//   -> pump, fab1
	//   -> seal, fab1
	//
	// req(A, fab2, P)?  [separable, max relation ans(4)]
	//   columns: A, P
	//   -> engine, housing_v0
	//   -> engine, housing_v1
	//   -> pump, housing_v0
	//   -> pump, housing_v1
}
