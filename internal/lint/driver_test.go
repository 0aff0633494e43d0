package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkSrc runs the full suite (directive checks on, scoping off) over a
// single-file package written to a temp dir.
func checkSrc(t *testing.T, src string) []Finding {
	t.Helper()
	findings, err := CheckDirWith(writePkg(t, src), All()...)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestDirectiveWithoutJustification(t *testing.T) {
	findings := checkSrc(t, `package p

func fixpoint(rel interface{ Insert(x int) bool }) {
	// sepvet:ignore
	for {
		if !rel.Insert(1) {
			break
		}
	}
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "sepvet" || !strings.Contains(f.Msg, "without a justification") {
		t.Fatalf("want a driver justification finding, got %v", f)
	}
}

func TestStaleDirective(t *testing.T) {
	findings := checkSrc(t, `package p

// sepvet:ignore — this suppresses nothing at all
func clean() int { return 1 }
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "sepvet" || !strings.Contains(f.Msg, "stale") {
		t.Fatalf("want a stale-directive finding, got %v", f)
	}
}

func TestStaleAnalyzerScopedDirective(t *testing.T) {
	// The directive names walorder, so it cannot excuse the budgetcheck
	// finding: both the violation and the stale directive surface.
	findings := checkSrc(t, `package p

func fixpoint(rel interface{ Insert(x int) bool }) {
	// sepvet:ignore:walorder — wrong analyzer for this violation
	for {
		if !rel.Insert(1) {
			break
		}
	}
}
`)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	var sawViolation, sawStale bool
	for _, f := range findings {
		switch {
		case f.Analyzer == "budgetcheck":
			sawViolation = true
		case f.Analyzer == "sepvet" && strings.Contains(f.Msg, "stale"):
			sawStale = true
		}
	}
	if !sawViolation || !sawStale {
		t.Fatalf("want the violation plus a stale finding, got %v", findings)
	}
}

func TestStaleSkippedUnderPartialSuite(t *testing.T) {
	// A directive aimed at an analyzer that did not run must not be
	// reported stale — the shim and -analyzers runs set NoDirectiveChecks
	// for exactly this reason.
	dir := writePkg(t, `package p

// sepvet:ignore:walorder — the durable path is exercised elsewhere
func clean() int { return 1 }
`)
	findings, err := Check(".", Options{
		Dirs:              []string{dir},
		Analyzers:         []*Analyzer{Budgetcheck()},
		NoDirectiveChecks: true,
		Unscoped:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("got %d findings, want 0: %v", len(findings), findings)
	}
}

func TestProseMentionIsNotADirective(t *testing.T) {
	// Documentation that merely mentions the directive word mid-comment
	// must not parse as a directive (and so cannot be reported stale).
	findings := checkSrc(t, `package p

// Exemptions carry a "// sepvet:ignore" comment with a justification;
// see the lint package for the sepvet:ignore:analyzer form.
func clean() int { return 1 }
`)
	if len(findings) != 0 {
		t.Fatalf("got %d findings, want 0: %v", len(findings), findings)
	}
}

func TestPackagesWalk(t *testing.T) {
	dirs, err := Packages("../..", nil)
	if err != nil {
		t.Fatal(err)
	}
	has := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		has[d] = true
		if strings.Contains(d, "testdata") {
			t.Errorf("walk descended into testdata: %s", d)
		}
	}
	for _, want := range []string{".", "internal/lint", "cmd/sepvet", "internal/wal"} {
		if !has[want] {
			t.Errorf("walk missed %s (got %d dirs)", want, len(dirs))
		}
	}
}

func TestPackagesSkip(t *testing.T) {
	dirs, err := Packages("../..", []string{"cmd", "internal/wal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d == "internal/wal" || strings.HasPrefix(d, "cmd") {
			t.Errorf("walk included skipped dir %s", d)
		}
	}
}

func TestPackagesSkipsNestedModules(t *testing.T) {
	// A sub-directory with its own go.mod is a separate module: the walk
	// must neither report it nor descend into it. The root's own go.mod
	// does not stop the walk.
	root := t.TempDir()
	for path, src := range map[string]string{
		"go.mod":            "module m\n",
		"a/a.go":            "package a\n",
		"nested/go.mod":     "module n\n",
		"nested/n.go":       "package n\n",
		"nested/inner/i.go": "package inner\n",
		"b/go.mod.txt":      "not a module file\n",
		"b/b.go":            "package b\n",
	} {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := Packages(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(dirs, ","), "a,b"; got != want {
		t.Fatalf("Packages = %s, want %s", got, want)
	}
}

func TestAnalyzerScoping(t *testing.T) {
	a := &Analyzer{Name: "demo", Paths: []string{"internal/server", "cmd"}}
	for dir, want := range map[string]bool{
		"internal/server":             true,
		"internal/server/sub":         true,
		"internal/serverx":            false, // prefix match is per path element
		"cmd/sepdld":                  true,
		"internal/wal":                false,
		"internal/lint/testdata/demo": true, // corpus escape
	} {
		if got := a.applies(dir); got != want {
			t.Errorf("applies(%q) = %v, want %v", dir, got, want)
		}
	}
	everywhere := &Analyzer{Name: "wide"}
	if !everywhere.applies("anything/at/all") {
		t.Error("empty Paths must apply everywhere")
	}
}
