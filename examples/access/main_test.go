package main

// Example pins the program's whole output: the Explain text and every
// answer it prints.
func Example() {
	main()
	// Output:
	// strategy: separable (chosen by auto)
	// 3:3: info[SEP051]: member/2 is a separable recursion with 1 equivalence class(es) and 1 persistent column(s)
	//     = member/2 is a separable recursion with 1 equivalence class(es)
	//         e1: columns {1}, 1 rule(s)
	//           member(%h0, %h1) :- belongs(%h0, %b1_0) & member(%b1_0, %h1).
	//         persistent columns: {2}
	//         1 exit rule(s)
	// -: info[SEP050]: strategy applicability for query member(amy, G)
	//     = separable: yes (full selection (class fully bound))
	//       magic sets: yes (selection constants at columns {1})
	//       counting: yes (full selection (class fully bound))
	//       henschen-naqvi: yes (full selection (class fully bound))
	//       aho-ullman pushing: no (columns {1} are not stable: the recursion rewrites them)
	//       semi-naive bottom-up: yes (always applies)
	// carry1(amy);
	// seen1(V1) := carry1(V1);
	// while carry1 not empty do
	//     carry1(b10) := carry1(V1) & belongs(V1, b10);
	//     carry1 := carry1 - seen1;
	//     seen1 := seen1 ∪ carry1;
	// endwhile;
	// carry2(V2) := seen1(V1) & belongs(V1, V2);
	// seen2(V2) := carry2(V2);
	// ans(V2) := seen2(V2);
	//
	// member(amy, G)?  [strategy: separable]
	//   -> eng
	//   -> staff
	//
	// canRead(amy, D)?  [strategy: magic]
	//   -> design
	//   -> handbook
	//
	// canRead(U, forecast)?  [strategy: magic]
	//   (no answers)
	//
	// orphaned(D)?  [strategy: seminaive]
	//   -> archive
	//   -> forecast
}
