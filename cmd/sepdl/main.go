// Command sepdl loads a Datalog program and fact files and evaluates
// queries, choosing the evaluation strategy automatically (the Separable
// algorithm when the recursion passes the Definition 2.4 test) unless one
// is forced with -strategy.
//
// Usage:
//
//	sepdl -program rules.dl -facts data.dl -query 'buys(tom, Y)?' [-strategy separable] [-stats] [-explain]
//	sepdl -program rules.dl -facts data.dl -query '...' -timeout 2s -max-tuples 100000 -fallback
//	sepdl -program rules.dl -facts data.dl -query '...' -parallel 8 -concurrency 2 -admit-wait 5s
//	sepdl -program rules.dl -facts data.dl            # REPL on stdin
//	sepdl -data-dir ./data -program rules.dl -query '...'  # durable facts (WAL)
//
// -concurrency bounds how many queries evaluate at once (0 = unlimited;
// negative admits none, a drain mode). -parallel fires the same -query N
// times concurrently, exercising snapshot isolation and admission
// control. -fallback retries a budget-aborted compiled strategy under
// semi-naive.
//
// Exit codes follow the shared taxonomy in internal/errcode (sepdld maps
// the same classes to HTTP statuses): 0 success, 1 load/parse/check
// failure, 2 usage, 3 overloaded or draining (query never evaluated),
// 4 deadline exceeded, 5 resource budget exhausted, 6 internal error.
//
// In the REPL, enter queries like "buys(tom, Y)?"; ":explain QUERY"
// prints the strategy the query would run with, its separability findings
// and, under Separable, the instantiated Figure 2 program; ":why FACT"
// prints a derivation tree for a ground fact, and ":quit" exits. For every
// predicate's separability without a query, run "sepdl check rules.dl".
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"sepdl"
	"sepdl/internal/errcode"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("sepdl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programPath = fs.String("program", "", "path to the Datalog rules file (required unless -data-dir has state)")
		factsPath   = fs.String("facts", "", "comma-separated paths to ground-facts files")
		dataDir     = fs.String("data-dir", "", "durable data directory (write-ahead log); empty = in-RAM only")
		memBytes    = fs.Int64("memtable-bytes", 0, "in-RAM overlay budget before facts flush to sorted segment files; 0 disables the trigger")
		cacheBytes  = fs.Int64("block-cache-bytes", 0, "segment block-cache budget; 0 = default (32 MiB), negative disables retention")
		query       = fs.String("query", "", "query to evaluate; omit for a REPL")
		strategy    = fs.String("strategy", "auto", "auto|separable|magic|magic-sup|seminaive|naive")
		showStats   = fs.Bool("stats", false, "print evaluation statistics (relation sizes, iterations, time)")
		explain     = fs.Bool("explain", false, "print the strategy the query runs with, its separability findings and, under separable, the compiled program")
		relaxed     = fs.Bool("relaxed", false, "allow condition-4-violating recursions in the Separable strategy (§5)")
		dumpPath    = fs.String("dump", "", "write the loaded facts to this file (sorted, parseable) and exit")
		timeout     = fs.Duration("timeout", 0, "wall-clock limit per query (e.g. 2s); 0 means unlimited")
		maxTuples   = fs.Int("max-tuples", 0, "limit on derived tuples per query; 0 means unlimited")
		concurrency = fs.Int("concurrency", 0, "max queries evaluated at once; 0 unlimited, negative admits none (drain)")
		admitWait   = fs.Duration("admit-wait", 0, "how long an over-limit query queues for a slot before failing overloaded")
		parallel    = fs.Int("parallel", 1, "fire the -query this many times concurrently")
		fallback    = fs.Bool("fallback", false, "retry a budget-aborted compiled strategy under semi-naive")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *programPath == "" && *dataDir == "" {
		fmt.Fprintln(stderr, "sepdl: -program is required")
		fs.Usage()
		return 2
	}
	engOpts := []sepdl.EngineOption{
		sepdl.WithMaxConcurrent(*concurrency),
		sepdl.WithAdmissionWait(*admitWait),
	}
	var e *sepdl.Engine
	if *dataDir != "" {
		// Recover the durable state first; -program/-facts then only
		// bootstrap an empty directory, so re-running with the same flags
		// never double-loads the rules into a recovered database.
		engOpts = append(engOpts,
			sepdl.WithMemtableBytes(*memBytes), sepdl.WithBlockCacheBytes(*cacheBytes))
		var err error
		if e, err = sepdl.Open(*dataDir, engOpts...); err != nil {
			fmt.Fprintln(stderr, "sepdl:", err)
			return 1
		}
		defer e.Close()
	} else {
		e = sepdl.New(engOpts...)
	}
	if e.ProgramText() == "" && e.NumFacts() == 0 {
		if *programPath != "" {
			src, err := os.ReadFile(*programPath)
			if err != nil {
				fmt.Fprintln(stderr, "sepdl:", err)
				return 1
			}
			if err := e.LoadProgram(string(src)); err != nil {
				fmt.Fprintln(stderr, "sepdl:", err)
				return 1
			}
		}
		if *factsPath != "" {
			for _, p := range strings.Split(*factsPath, ",") {
				data, err := os.ReadFile(strings.TrimSpace(p))
				if err != nil {
					fmt.Fprintln(stderr, "sepdl:", err)
					return 1
				}
				if err := e.LoadFacts(string(data)); err != nil {
					fmt.Fprintln(stderr, "sepdl:", err)
					return 1
				}
			}
		}
	}

	if *dumpPath != "" {
		f, err := os.Create(*dumpPath)
		if err != nil {
			fmt.Fprintln(stderr, "sepdl:", err)
			return 1
		}
		defer f.Close()
		if err := e.WriteFacts(f); err != nil {
			fmt.Fprintln(stderr, "sepdl:", err)
			return 1
		}
		return 0
	}

	opts := []sepdl.QueryOption{sepdl.WithStrategy(sepdl.Strategy(*strategy))}
	if *relaxed {
		opts = append(opts, sepdl.WithRelaxedConnectivity())
	}
	if *timeout > 0 {
		opts = append(opts, sepdl.WithDeadline(*timeout))
	}
	if *maxTuples > 0 {
		opts = append(opts, sepdl.WithBudget(sepdl.Budget{MaxTuples: *maxTuples}))
	}
	if *fallback {
		opts = append(opts, sepdl.WithFallback())
	}
	if *query != "" {
		if *parallel > 1 {
			return runParallel(e, stdout, stderr, *query, opts, *showStats, *parallel)
		}
		if err := runQuery(e, stdout, *query, opts, *showStats, *explain); err != nil {
			return reportQueryError(stderr, err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "sepdl: %d facts over %d constants loaded; enter queries (\":quit\" to exit)\n",
		e.NumFacts(), e.DistinctConstants())
	sc := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "?- ")
		if !sc.Scan() {
			return 0
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit" || line == ":q":
			return 0
		case strings.HasPrefix(line, ":explain "):
			out, err := e.Explain(strings.TrimPrefix(line, ":explain "), opts...)
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
				continue
			}
			fmt.Fprint(stdout, out)
		case strings.HasPrefix(line, ":why "):
			out, err := e.Why(strings.TrimPrefix(line, ":why "))
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
				continue
			}
			fmt.Fprint(stdout, out)
		default:
			if err := runQuery(e, stdout, line, opts, *showStats, false); err != nil {
				fmt.Fprintln(stdout, "error:", err)
			}
		}
	}
}

// reportQueryError prints a query failure and maps it to an exit code
// via the shared internal/errcode taxonomy — the same classes sepdld maps
// to HTTP statuses, so scripts and load balancers agree on what happened:
// 3 overloaded/draining (never evaluated; retry elsewhere), 4 deadline,
// 5 resource budget (tuples/rounds/bytes), 6 internal, 1 everything else.
func reportQueryError(stderr io.Writer, err error) int {
	class := errcode.Classify(err)
	switch class {
	case errcode.Overload, errcode.Drain:
		fmt.Fprintln(stderr, "sepdl: overloaded:", err)
	default:
		fmt.Fprintln(stderr, "sepdl:", err)
	}
	return class.ExitCode()
}

// runParallel fires the same query n times concurrently. Each worker
// renders into a private buffer; outputs are printed in worker order once
// all complete, so concurrent runs stay readable. The exit code is 0 only
// if every run succeeded; an overload rejection wins over other failures
// so scripts can distinguish load shedding from bad queries.
func runParallel(e *sepdl.Engine, stdout, stderr io.Writer, query string, opts []sepdl.QueryOption, showStats bool, n int) int {
	outs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = runQuery(e, &outs[i], query, opts, showStats, false)
		}()
	}
	wg.Wait()
	code := 0
	for i := 0; i < n; i++ {
		fmt.Fprintf(stdout, "%% run %d/%d\n", i+1, n)
		if errs[i] != nil {
			if c := reportQueryError(stderr, errs[i]); c == 3 || code == 0 {
				code = c
			}
			continue
		}
		if _, err := io.Copy(stdout, &outs[i]); err != nil {
			fmt.Fprintln(stderr, "sepdl:", err)
			code = 1
		}
	}
	return code
}

// runQuery answers query under opts, the command line's query options;
// with explain it first prints Explain under the same options, so the
// explanation describes the run printed after it.
func runQuery(e *sepdl.Engine, w io.Writer, query string, opts []sepdl.QueryOption, showStats, explain bool) error {
	if explain {
		out, err := e.Explain(query, opts...)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	res, err := e.Query(query, opts...)
	if err != nil {
		return err
	}
	if len(res.Columns) == 0 {
		if res.True() {
			fmt.Fprintln(w, "true")
		} else {
			fmt.Fprintln(w, "false")
		}
	} else {
		fmt.Fprintf(w, "%% %s\n", strings.Join(res.Columns, ", "))
		for _, row := range res.Rows() {
			fmt.Fprintln(w, strings.Join(row, ", "))
		}
		fmt.Fprintf(w, "%% %d answer(s)\n", res.Len())
	}
	if showStats {
		st := res.Stats
		from := ""
		if st.FallbackFrom != "" {
			from = fmt.Sprintf(" fallback-from=%s", st.FallbackFrom)
		}
		plan := "miss"
		if st.PlanCacheHit {
			plan = "hit"
		}
		fmt.Fprintf(w, "%% strategy=%s%s time=%s iterations=%d inserted=%d max=%s(%d)\n",
			st.Strategy, from, st.Duration, st.Iterations, st.Inserted, st.MaxRelation, st.MaxRelationSize)
		fmt.Fprintf(w, "%% plan-cache=%s closure-hits=%d closure-misses=%d batch=%d peak-intermediate=%dB\n",
			plan, st.ClosureCacheHits, st.ClosureCacheMisses, st.BatchSize, st.PeakIntermediateBytes)
		for name, size := range st.RelationSizes {
			fmt.Fprintf(w, "%%   %s: %d\n", name, size)
		}
	}
	return nil
}
