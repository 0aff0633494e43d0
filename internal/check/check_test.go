package check

import (
	"strings"
	"testing"

	"sepdl/internal/core"
	"sepdl/internal/diag"
	"sepdl/internal/parser"
)

// codesOf runs Source and returns the distinct codes found.
func codesOf(t *testing.T, src, query string) []string {
	t.Helper()
	return Source(src, Options{Query: query}).Codes()
}

func hasCode(l diag.List, code string) bool {
	for _, d := range l {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestSyntaxErrorIsDiagnostic(t *testing.T) {
	l := Source("t(X :- e(X).", Options{})
	if len(l) != 1 || l[0].Code != diag.CodeSyntax || l[0].Severity != diag.Error {
		t.Fatalf("diagnostics = %v, want one SEP001 error", l)
	}
	if !l[0].Pos.Known() {
		t.Error("syntax diagnostic lost its position")
	}
}

func TestQuerySyntaxErrorKeepsProgramFindings(t *testing.T) {
	l := Source("p(X) :- q(X, Z).\n", Options{Query: "p(("})
	if !hasCode(l, diag.CodeSyntax) {
		t.Errorf("codes = %v, want SEP001 for the bad query", l.Codes())
	}
	if !hasCode(l, diag.CodeSingletonVar) {
		t.Errorf("codes = %v, want the program lints too", l.Codes())
	}
}

func TestErrorsSuppressDeeperAnalyses(t *testing.T) {
	// Unsafe rule: the separability pass must not run on it.
	l := Source("t(X, Y) :- e(X).\n", Options{})
	if !hasCode(l, diag.CodeUnsafeRule) {
		t.Fatalf("codes = %v, want SEP008", l.Codes())
	}
	if l.Max() != diag.Error {
		t.Errorf("Max = %v", l.Max())
	}
	for _, d := range l {
		if d.Severity < diag.Error {
			t.Errorf("unexpected non-error finding %v after errors", d)
		}
	}
}

func TestStratificationFailureReported(t *testing.T) {
	l := Source("win(X) :- move(X, Y) & not win(Y).\n", Options{})
	if !hasCode(l, diag.CodeNotStratifiable) {
		t.Fatalf("codes = %v, want SEP020", l.Codes())
	}
}

func TestCartesianAndSingletonLints(t *testing.T) {
	l := Source("p(X, Y) :- a(X) & b(Y).\nq(X) :- c(X, Z).\n", Options{})
	if !hasCode(l, diag.CodeCartesian) {
		t.Errorf("codes = %v, want SEP042", l.Codes())
	}
	if !hasCode(l, diag.CodeSingletonVar) {
		t.Errorf("codes = %v, want SEP044 for Z", l.Codes())
	}
	// Underscore-prefixed singletons are intentional.
	l = Source("q(X) :- c(X, _Z).\n", Options{})
	if hasCode(l, diag.CodeSingletonVar) {
		t.Errorf("codes = %v, _Z should not be flagged", l.Codes())
	}
}

func TestBuiltinConnectsJoin(t *testing.T) {
	// eq bridges a and b: an equality join, not a cartesian product.
	l := Source("p(X, Y) :- a(X) & b(Y) & eq(X, Y).\n", Options{})
	if hasCode(l, diag.CodeCartesian) {
		t.Errorf("codes = %v, eq-joined rule flagged as cartesian", l.Codes())
	}
}

func TestQueryAnalyses(t *testing.T) {
	src := `t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W) & t(W, Y).
dead(X) :- t(X, X).
`
	// Unknown query predicate.
	l := Source(src, Options{Query: "nosuch(a)?"})
	if !hasCode(l, diag.CodeUnknownQuery) {
		t.Errorf("codes = %v, want SEP045", l.Codes())
	}
	// Query arity mismatch reuses SEP003.
	l = Source(src, Options{Query: "t(a, b, c)?"})
	if !hasCode(l, diag.CodeArity) {
		t.Errorf("codes = %v, want SEP003", l.Codes())
	}
	// No constants: SEP043.
	l = Source(src, Options{Query: "t(X, Y)?"})
	if !hasCode(l, diag.CodeNoSelection) {
		t.Errorf("codes = %v, want SEP043", l.Codes())
	}
	// dead/1 is defined, never referenced, and not the query: SEP040.
	l = Source(src, Options{Query: "t(a, Y)?"})
	if !hasCode(l, diag.CodeUnusedPred) {
		t.Errorf("codes = %v, want SEP040", l.Codes())
	}
}

func TestUnreachableRule(t *testing.T) {
	// helper is referenced by dead, but neither contributes to the query.
	src := `t(X, Y) :- e(X, Y).
dead(X) :- helper(X, X).
helper(X, Y) :- e(X, Y).
`
	l := Source(src, Options{Query: "t(a, Y)?"})
	if !hasCode(l, diag.CodeUnusedPred) { // dead: never referenced
		t.Errorf("codes = %v, want SEP040 for dead", l.Codes())
	}
	if !hasCode(l, diag.CodeUnreachableRule) { // helper: referenced, unreachable
		t.Errorf("codes = %v, want SEP041 for helper", l.Codes())
	}
}

func TestSeparableProgramReports(t *testing.T) {
	src := "buys(X, Y) :- friend(X, W) & buys(W, Y).\nbuys(X, Y) :- perfectFor(X, Y).\n"
	l := Source(src, Options{Query: "buys(tom, Y)?"})
	if l.Max() > diag.Info {
		t.Fatalf("diagnostics = %v, want info only", l)
	}
	if !hasCode(l, diag.CodeSeparableReport) || !hasCode(l, diag.CodeStrategyReport) {
		t.Fatalf("codes = %v, want SEP050 and SEP051", l.Codes())
	}
	var report diag.Diagnostic
	for _, d := range l {
		if d.Code == diag.CodeStrategyReport {
			report = d
		}
	}
	for _, want := range []string{
		"separable: yes",
		"magic sets: yes",
		"counting: yes",
		"henschen-naqvi: yes",
		"aho-ullman pushing: no",
		"semi-naive bottom-up: yes",
	} {
		if !strings.Contains(report.Explanation, want) {
			t.Errorf("strategy report missing %q:\n%s", want, report.Explanation)
		}
	}
}

func TestAhoAppliesOnStableColumn(t *testing.T) {
	// Column 1 is stable (the recursion carries X through); the selection
	// sits on it, so Aho-Ullman pushing applies.
	src := "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, W) & par(W, Y).\n"
	l := Source(src, Options{Query: "anc(adam, Y)?"})
	var report diag.Diagnostic
	for _, d := range l {
		if d.Code == diag.CodeStrategyReport {
			report = d
		}
	}
	if !strings.Contains(report.Explanation, "aho-ullman pushing: yes") {
		t.Errorf("strategy report:\n%s", report.Explanation)
	}
}

func TestMutualRecursionReportedOnce(t *testing.T) {
	src := `p(X) :- q(X).
q(X) :- p(X).
p(X) :- e(X).
`
	l := Source(src, Options{})
	n := 0
	for _, d := range l {
		if d.Code == diag.CodeMutualRec {
			n++
		}
	}
	if n != 1 {
		t.Errorf("SEP031 reported %d times, want once:\n%s", n, l.Render("  "))
	}
}

func TestNonSeparableWarningSurfaces(t *testing.T) {
	l := Source("sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U) & sg(U, V) & down(V, Y).\n", Options{})
	if !hasCode(l, diag.CodeDisconnected) {
		t.Errorf("codes = %v, want SEP037", l.Codes())
	}
	if l.Max() != diag.Warning {
		t.Errorf("Max = %v, want Warning", l.Max())
	}
}

func TestCleanNonRecursiveProgramIsQuiet(t *testing.T) {
	l := Source("p(X, Y) :- e(X, Y).\n", Options{})
	if len(l) != 0 {
		t.Fatalf("diagnostics = %v, want none", l)
	}
	if got := codesOf(t, "p(X, Y) :- e(X, Y).\n", ""); len(got) != 0 {
		t.Fatalf("codes = %v", got)
	}
}

// TestSeparabilityReportsTheCallersAnalysis: Separability renders the
// analysis it is given, so a caller's relaxed analysis (Engine.Explain
// under WithRelaxedConnectivity) reports the classes the strict pass
// withholds. Both report the query's strategies; the strict report says
// which finding rules Separable out.
func TestSeparabilityReportsTheCallersAnalysis(t *testing.T) {
	prog, err := parser.Parse("sg(X, Y) :- sibling(X, Y).\nsg(X, Y) :- up(X, U) & sg(U, V) & down(V, Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Query("sg(a, Y)?")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, "sg")
	if l := Separability(prog, a, err, &q); len(l) != 2 || l[0].Code != diag.CodeDisconnected ||
		l[1].Code != diag.CodeStrategyReport || !strings.HasPrefix(l[1].Explanation, "separable: no (SEP037)\nmagic sets: yes") {
		t.Errorf("strict: %v, want SEP037 and a SEP050 that names it", l)
	}
	a, err = core.AnalyzeOpts(prog, "sg", core.Options{AllowDisconnected: true})
	l := Separability(prog, a, err, &q)
	if codes := l.Codes(); len(codes) != 2 || codes[0] != diag.CodeStrategyReport || codes[1] != diag.CodeSeparableReport {
		t.Fatalf("relaxed: codes %v, want SEP050 and SEP051", codes)
	}
	if !strings.Contains(l[0].Message, "condition 4 relaxed") {
		t.Errorf("relaxed SEP051 = %q, want the relaxation named", l[0].Message)
	}
}
