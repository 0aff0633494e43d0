package main

// Example pins the program's whole output: the Explain text and every
// answer it prints.
func Example() {
	main()
	// Output:
	// strategy: separable (chosen by auto)
	// 2:3: info[SEP051]: buys/2 is a separable recursion with 1 equivalence class(es) and 1 persistent column(s)
	//     = buys/2 is a separable recursion with 1 equivalence class(es)
	//         e1: columns {1}, 2 rule(s)
	//           buys(%h0, %h1) :- friend(%h0, %b0_0) & buys(%b0_0, %h1).
	//           buys(%h0, %h1) :- idol(%h0, %b1_0) & buys(%b1_0, %h1).
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
	//     carry1(b00) := carry1(V1) & friend(V1, b00) ∪ carry1(V1) & idol(V1, b10);
	//     carry1 := carry1 - seen1;
	//     seen1 := seen1 ∪ carry1;
	// endwhile;
	// carry2(V2) := seen1(V1) & perfectFor(V1, V2);
	// seen2(V2) := carry2(V2);
	// ans(V2) := seen2(V2);
	//
	// buys(tom, Y)?  [strategy: separable]
	//   Y = hat
	//   Y = radio
	//   Y = tv
	//
	// buys(X, radio)?  [strategy: separable]
	//   X = dick
	//   X = harry
	//   X = mary
	//   X = sue
	//   X = tom
}
