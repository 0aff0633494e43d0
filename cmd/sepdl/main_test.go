package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

const (
	rulesPath = "../../testdata/buys.dl"
	factsPath = "../../testdata/buys_facts.dl"
)

func runCLI(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestQueryMode(t *testing.T) {
	out, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath, "-query", "buys(tom, Y)?")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"radio", "tv", "2 answer(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "car") {
		t.Errorf("answer leaked unreachable tuple:\n%s", out)
	}
}

func TestGroundQueryPrintsTruth(t *testing.T) {
	out, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath, "-query", "buys(tom, radio)?")
	if code != 0 || !strings.Contains(out, "true") {
		t.Fatalf("exit=%d out=%q", code, out)
	}
	out, _, _ = runCLI(t, "", "-program", rulesPath, "-facts", factsPath, "-query", "buys(alice, radio)?")
	if !strings.Contains(out, "false") {
		t.Fatalf("out=%q", out)
	}
}

func TestStatsFlag(t *testing.T) {
	out, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath, "-stats", "-query", "buys(tom, Y)?")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "strategy=separable") || !strings.Contains(out, "seen1") {
		t.Errorf("stats missing:\n%s", out)
	}
	// A one-shot CLI query is always a cold cache and a batch of one.
	if !strings.Contains(out, "plan-cache=miss") || !strings.Contains(out, "batch=1") {
		t.Errorf("stats missing cache counters:\n%s", out)
	}
}

func TestExplainFlag(t *testing.T) {
	out, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath, "-explain", "-query", "buys(tom, Y)?")
	if code != 0 || !strings.HasPrefix(out, "strategy: separable (chosen by auto)\n") || !strings.Contains(out, "carry1(tom);") {
		t.Fatalf("exit=%d out=%q", code, out)
	}
}

// TestExplainFlagDescribesTheRun: -explain explains the query under the
// same -strategy and -relaxed as the run it prints.
func TestExplainFlagDescribesTheRun(t *testing.T) {
	out, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-strategy", "magic", "-explain", "-stats", "-query", "buys(tom, Y)?")
	if code != 0 || !strings.HasPrefix(out, "strategy: magic (forced)\n") || !strings.Contains(out, "strategy=magic") {
		t.Fatalf("exit=%d out=%q", code, out)
	}
	if strings.Contains(out, "carry1") {
		t.Errorf("magic run explained with the Separable program:\n%s", out)
	}
	const sg = "../../testdata/nonseparable.dl"
	out, _, code = runCLI(t, "", "-program", sg, "-explain", "-stats", "-query", "sg(a, Y)?")
	if code != 0 || !strings.HasPrefix(out, "strategy: magic (chosen by auto)\n") || !strings.Contains(out, "warning[SEP037]") {
		t.Fatalf("strict: exit=%d out=%q", code, out)
	}
	out, _, code = runCLI(t, "", "-program", sg, "-relaxed", "-explain", "-stats", "-query", "sg(a, Y)?")
	if code != 0 || !strings.HasPrefix(out, "strategy: separable (chosen by auto)\n") ||
		!strings.Contains(out, "condition 4 relaxed") || !strings.Contains(out, "strategy=separable") {
		t.Fatalf("relaxed: exit=%d out=%q", code, out)
	}
}

func TestForcedStrategy(t *testing.T) {
	out, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-strategy", "magic", "-stats", "-query", "buys(tom, Y)?")
	if code != 0 || !strings.Contains(out, "strategy=magic") {
		t.Fatalf("exit=%d out=%q", code, out)
	}
}

func TestREPL(t *testing.T) {
	stdin := `
buys(tom, Y)?
:explain buys(tom, Y)?
bogus query here
:quit
`
	out, _, code := runCLI(t, stdin, "-program", rulesPath, "-facts", factsPath)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"facts over", "radio", "strategy: separable (chosen by auto)", "equivalence class", "error:"} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q:\n%s", want, out)
		}
	}
}

func TestMissingProgramFlag(t *testing.T) {
	_, errOut, code := runCLI(t, "", "-query", "x(Y)?")
	if code != 2 || !strings.Contains(errOut, "-program is required") {
		t.Fatalf("exit=%d err=%q", code, errOut)
	}
}

func TestMissingFile(t *testing.T) {
	_, errOut, code := runCLI(t, "", "-program", "no-such-file.dl", "-query", "x(Y)?")
	if code != 1 || !strings.Contains(errOut, "no-such-file.dl") {
		t.Fatalf("exit=%d err=%q", code, errOut)
	}
}

func TestBadQueryExitCode(t *testing.T) {
	_, errOut, code := runCLI(t, "", "-program", rulesPath, "-query", "buys(tom,")
	if code != 1 || !strings.Contains(errOut, "parse error") {
		t.Fatalf("exit=%d err=%q", code, errOut)
	}
}

// TestREPLCompile: :explain prints the Figure 2 program the query
// compiles to, and under the REPL's own -strategy.
func TestREPLCompile(t *testing.T) {
	stdin := ":explain buys(tom, Y)?\n:quit\n"
	out, _, code := runCLI(t, stdin, "-program", rulesPath, "-facts", factsPath)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"carry1(tom);", "while carry1 not empty do", "ans(V2) := seen2(V2);"} {
		if !strings.Contains(out, want) {
			t.Errorf("compile output missing %q:\n%s", want, out)
		}
	}
	out, _, code = runCLI(t, stdin, "-program", rulesPath, "-facts", factsPath, "-strategy", "seminaive")
	if code != 0 || !strings.Contains(out, "strategy: seminaive (forced)") || strings.Contains(out, "carry1") {
		t.Fatalf("REPL -strategy seminaive: exit=%d out=%q", code, out)
	}
}

func TestDumpFlag(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/dump.dl"
	_, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath, "-dump", path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "friend(tom, dick).") {
		t.Fatalf("dump missing fact:\n%s", data)
	}
	// The dump must be reloadable.
	_, _, code = runCLI(t, "", "-program", rulesPath, "-facts", path, "-query", "buys(tom, Y)?")
	if code != 0 {
		t.Fatal("dump not reloadable")
	}
}

func TestREPLWhy(t *testing.T) {
	stdin := ":why buys(tom, radio)\n:quit\n"
	out, _, code := runCLI(t, stdin, "-program", rulesPath, "-facts", factsPath)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "[base fact]") {
		t.Fatalf("why output missing derivation:\n%s", out)
	}
}

func TestMaxTuplesFlag(t *testing.T) {
	_, errOut, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-max-tuples", "1", "-query", "buys(tom, Y)?")
	if code != 5 {
		t.Fatalf("exit = %d, want 5 (resource budget)", code)
	}
	if !strings.Contains(errOut, "tuples limit 1 exceeded") {
		t.Fatalf("stderr = %q, want tuples budget error", errOut)
	}
	// A generous limit must not get in the way.
	out, _, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-max-tuples", "100000", "-query", "buys(tom, Y)?")
	if code != 0 || !strings.Contains(out, "2 answer(s)") {
		t.Fatalf("exit=%d out=%q", code, out)
	}
}

func TestTimeoutFlag(t *testing.T) {
	// 1ns expires before evaluation starts, so the error is deterministic.
	_, errOut, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-timeout", "1ns", "-query", "buys(tom, Y)?")
	if code != 4 {
		t.Fatalf("exit = %d, want 4 (deadline)", code)
	}
	if !strings.Contains(errOut, "deadline") {
		t.Fatalf("stderr = %q, want deadline error", errOut)
	}
}

func TestConcurrencyFlagOverloaded(t *testing.T) {
	// A negative limit is drain mode: no query is admitted, which makes the
	// overloaded path deterministic from the CLI.
	_, errOut, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-concurrency", "-1", "-query", "buys(tom, Y)?")
	if code != 3 {
		t.Fatalf("exit = %d, want 3", code)
	}
	if !strings.Contains(errOut, "sepdl: overloaded") {
		t.Fatalf("stderr = %q, want overloaded message", errOut)
	}
}

func TestParallelFlagAllRunsAnswer(t *testing.T) {
	// More workers than admission slots, but a generous admission wait lets
	// everyone queue for a slot, so all runs must still answer.
	out, errOut, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-parallel", "4", "-concurrency", "2", "-admit-wait", "30s", "-query", "buys(tom, Y)?")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", code, errOut)
	}
	for i := 1; i <= 4; i++ {
		if !strings.Contains(out, fmt.Sprintf("%% run %d/4", i)) {
			t.Errorf("output missing run %d header:\n%s", i, out)
		}
	}
	if got := strings.Count(out, "2 answer(s)"); got != 4 {
		t.Errorf("answer footers = %d, want 4:\n%s", got, out)
	}
}

func TestParallelFlagOverloadSheds(t *testing.T) {
	// Drain mode with several workers: every run is shed, each reports the
	// overloaded message, and the exit code is the admission-control 3.
	// (A positive limit would shed nondeterministically here — the runs can
	// finish fast enough to never overlap — so the test drains instead.)
	out, errOut, code := runCLI(t, "", "-program", rulesPath, "-facts", factsPath,
		"-parallel", "4", "-concurrency", "-1", "-query", "buys(tom, Y)?")
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (stderr %q)", code, errOut)
	}
	if got := strings.Count(errOut, "sepdl: overloaded"); got != 4 {
		t.Fatalf("overloaded messages = %d, want 4:\n%s", got, errOut)
	}
	// Run headers still appear so the shed runs are attributable.
	if !strings.Contains(out, "% run 4/4") {
		t.Errorf("output missing run headers:\n%s", out)
	}
}

// writeChainFixture writes a 10-node friend chain with the buys program to
// dir. Semi-naive derives exactly 10 tuples answering buys(a0, Y)?; the
// magic rewrite derives 20 (magic@ seeds plus bound answers), so a tuple
// budget of 12 trips magic while semi-naive fits.
func writeChainFixture(t *testing.T, dir string) (rules, facts string) {
	t.Helper()
	rules = dir + "/chain.dl"
	facts = dir + "/chain_facts.dl"
	prog := "buys(X, Y) :- perfectFor(X, Y).\nbuys(X, Y) :- friend(X, W) & buys(W, Y).\n"
	var b strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&b, "friend(a%d, a%d).\n", i, i+1)
	}
	b.WriteString("perfectFor(a9, g).\n")
	if err := os.WriteFile(rules, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(facts, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return rules, facts
}

func TestFallbackFlagReportsStrategy(t *testing.T) {
	rules, facts := writeChainFixture(t, t.TempDir())
	_, errOut, code := runCLI(t, "", "-program", rules, "-facts", facts,
		"-strategy", "magic", "-max-tuples", "12", "-query", "buys(a0, Y)?")
	if code != 5 || !strings.Contains(errOut, "tuples limit") {
		t.Fatalf("without -fallback: exit=%d stderr=%q, want budget failure", code, errOut)
	}
	out, errOut, code := runCLI(t, "", "-program", rules, "-facts", facts,
		"-strategy", "magic", "-max-tuples", "12", "-fallback", "-stats", "-query", "buys(a0, Y)?")
	if code != 0 {
		t.Fatalf("with -fallback: exit = %d (stderr %q)", code, errOut)
	}
	if !strings.Contains(out, "1 answer(s)") || !strings.Contains(out, "g") {
		t.Errorf("fallback answers missing:\n%s", out)
	}
	if !strings.Contains(out, "strategy=seminaive") || !strings.Contains(out, "fallback-from=magic") {
		t.Errorf("stats missing fallback report:\n%s", out)
	}
}
