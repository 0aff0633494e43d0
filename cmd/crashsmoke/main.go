// Command crashsmoke is the end-to-end kill-loop harness for the durable
// engine: it repeatedly spawns a child process (itself, with -child) that
// ingests facts into a write-ahead-logged engine and prints "acked N"
// after each durably acknowledged write, SIGKILLs the child at a
// different point each iteration, reopens the data directory, and
// verifies the recovered state:
//
//  1. Durability — every fact the child acknowledged before the kill is
//     present after recovery.
//  2. Prefix consistency — the recovered facts are exactly a prefix of
//     the ingest order: no gaps, no partial records, nothing from after
//     the tear.
//  3. Equivalence — a battery of queries under every evaluation strategy
//     returns byte-identical results to a fresh in-RAM engine loaded
//     with the same prefix (scope rejections must match too).
//
// Usage:
//
//	crashsmoke [-iterations 12] [-facts 400] [-dir DIR] [-memtable-bytes N] [-v]
//
// With -memtable-bytes > 0 the overlay budget forces background
// checkpoints that flush facts into sorted segment files mid-ingest (with
// 0, a run this small never reaches the log-growth threshold and recovery
// replays the log alone), so kills land before, during, and
// after segment builds, and recovery must serve the surviving prefix
// from whatever mix of cold segments and log tail the tear left behind.
//
// Exit status 0 when every iteration verifies, 1 otherwise. The harness
// is wired into `make crash-smoke`; it is a real-process complement to
// the in-process fault-injection tests in internal/wal and the root
// package.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"sepdl"
)

const program = `
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
`

const baseFacts = `
friend(a, b). friend(a, c). friend(b, d). friend(c, d).
idol(d, e). idol(a, e).
`

// factArgs returns the ingest sequence's i-th fact.
func factArgs(i int) (pred, c, g string) {
	// Attach the dynamic facts to nodes reachable from a, so recursive
	// queries actually traverse them.
	owners := []string{"a", "b", "c", "d", "e", "z"}
	return "perfectFor", owners[i%len(owners)], fmt.Sprintf("g%d", i)
}

// strategies is every strategy the engine serves.
var strategies = []sepdl.Strategy{
	sepdl.Auto, sepdl.Separable, sepdl.MagicSets, sepdl.MagicSetsSup,
	sepdl.SemiNaive, sepdl.Naive,
}

func main() {
	var (
		child      = flag.Bool("child", false, "internal: run as the ingesting child")
		dir        = flag.String("dir", "", "data directory (default: a temp dir)")
		iterations = flag.Int("iterations", 12, "kill-recover-verify cycles")
		facts      = flag.Int("facts", 400, "facts the child tries to ingest per run")
		memtable   = flag.Int64("memtable-bytes", 0, "overlay budget triggering segment flushes (0: checkpoints on log growth only)")
		verbose    = flag.Bool("v", false, "log each iteration")
	)
	flag.Parse()
	if *child {
		os.Exit(runChild(*dir, *facts, *memtable))
	}
	os.Exit(runParent(*dir, *iterations, *facts, *memtable, *verbose))
}

// storeOpts returns the engine options both the child and the verifier
// open the directory with, so recovery sees the same tiering config the
// writer ran under.
func storeOpts(memtable int64) []sepdl.EngineOption {
	if memtable <= 0 {
		return nil
	}
	return []sepdl.EngineOption{sepdl.WithMemtableBytes(memtable)}
}

// runChild ingests facts into the durable engine, printing "acked N"
// only after AddFact returned — i.e. after the record is fsynced. It is
// the process the parent kills mid-write.
func runChild(dir string, n int, memtable int64) int {
	e, err := sepdl.Open(dir, storeOpts(memtable)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	if e.ProgramText() == "" {
		if err := e.LoadProgram(program); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			return 1
		}
		if err := e.LoadFacts(baseFacts); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			return 1
		}
	}
	start := e.NumFacts() - 6 // dynamic facts already recovered
	for i := start; i < n; i++ {
		pred, c, g := factArgs(i)
		if err := e.AddFact(pred, c, g); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			return 1
		}
		fmt.Printf("acked %d\n", i)
	}
	if err := e.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	return 0
}

// runParent drives the kill loop.
func runParent(dir string, iterations, facts int, memtable int64, verbose bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashsmoke:", err)
		return 1
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "crashsmoke-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashsmoke:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = filepath.Join(tmp, "wal")
	}

	failures := 0
	for it := 0; it < iterations; it++ {
		// Kill at a different acknowledged count each round; past the
		// ingest size the child finishes and exits on its own (the clean
		// shutdown is part of the sweep too).
		killAt := 1 + (it*37)%facts
		lastAcked, err := spawnAndKill(self, dir, facts, killAt, memtable)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashsmoke: iteration %d: %v\n", it, err)
			return 1
		}
		if err := verify(dir, lastAcked, facts, memtable); err != nil {
			fmt.Fprintf(os.Stderr, "crashsmoke: iteration %d (acked %d): FAIL: %v\n", it, lastAcked, err)
			failures++
			continue
		}
		if verbose {
			fmt.Printf("crashsmoke: iteration %d: killed after ack %d, recovery verified\n", it, lastAcked)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "crashsmoke: %d/%d iterations failed\n", failures, iterations)
		return 1
	}
	fmt.Printf("crashsmoke: %d kill-recover-verify iterations passed (%d facts/run)\n", iterations, facts)
	return 0
}

// spawnAndKill runs the child and SIGKILLs it once it has acknowledged
// killAt dynamic facts, returning the highest index the parent saw
// acknowledged (-1 if none).
func spawnAndKill(self, dir string, facts, killAt int, memtable int64) (lastAcked int, err error) {
	cmd := exec.Command(self, "-child", "-dir", dir, "-facts", strconv.Itoa(facts),
		"-memtable-bytes", strconv.FormatInt(memtable, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return -1, err
	}
	if err := cmd.Start(); err != nil {
		return -1, err
	}
	lastAcked = -1
	seen := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "acked ") {
			continue
		}
		n, perr := strconv.Atoi(strings.TrimPrefix(line, "acked "))
		if perr != nil {
			continue
		}
		lastAcked = n
		seen++
		if seen >= killAt {
			cmd.Process.Kill() // SIGKILL: no deferred cleanup, no final fsync
			break
		}
	}
	// Drain any acks that raced the kill so the pipe closes, then reap.
	for sc.Scan() {
		if n, perr := strconv.Atoi(strings.TrimPrefix(sc.Text(), "acked ")); perr == nil {
			lastAcked = n
		}
	}
	cmd.Wait() // exit status is meaningless after a kill
	return lastAcked, nil
}

// verify reopens the directory and checks durability, prefix
// consistency, and six-strategy equivalence against an in-RAM oracle.
func verify(dir string, lastAcked, facts int, memtable int64) error {
	e, err := sepdl.Open(dir, storeOpts(memtable)...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer e.Close()

	recovered := e.NumFacts() - 6
	if recovered < 0 {
		return fmt.Errorf("base facts missing: %d facts total", e.NumFacts())
	}
	if recovered <= lastAcked {
		return fmt.Errorf("durability violated: child acked fact %d, recovery has only %d dynamic facts", lastAcked, recovered)
	}
	if recovered > facts {
		return fmt.Errorf("recovered %d dynamic facts, more than the %d ever written", recovered, facts)
	}
	// Prefix consistency: fact i present iff i < recovered.
	for i := 0; i < facts; i += 1 + facts/97 {
		pred, c, g := factArgs(i)
		res, err := e.Query(fmt.Sprintf("%s(%s, %s)?", pred, c, g))
		if err != nil {
			return fmt.Errorf("fact %d lookup: %w", i, err)
		}
		if want := i < recovered; res.True() != want {
			return fmt.Errorf("prefix violated: fact %d present=%v, want %v (recovered=%d)", i, res.True(), want, recovered)
		}
	}

	oracle := sepdl.New()
	if err := oracle.LoadProgram(program); err != nil {
		return err
	}
	if err := oracle.LoadFacts(baseFacts); err != nil {
		return err
	}
	for i := 0; i < recovered; i++ {
		pred, c, g := factArgs(i)
		if err := oracle.AddFact(pred, c, g); err != nil {
			return err
		}
	}
	queries := []string{"buys(a, Y)?", "buys(d, Y)?", "buys(X, g1)?", "buys(z, Y)?"}
	for _, q := range queries {
		for _, s := range strategies {
			r1, err1 := e.Query(q, sepdl.WithStrategy(s))
			r2, err2 := oracle.Query(q, sepdl.WithStrategy(s))
			if (err1 == nil) != (err2 == nil) {
				return fmt.Errorf("%s [%s]: recovered err=%v, oracle err=%v", q, s, err1, err2)
			}
			if err1 == nil && r1.String() != r2.String() {
				return fmt.Errorf("%s [%s]: recovered %s, oracle %s", q, s, r1, r2)
			}
		}
	}
	return nil
}
