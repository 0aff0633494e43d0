package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePkg materializes a single-file package in a temp dir.
func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestFlagsMaterializingLoopWithoutBudget(t *testing.T) {
	dir := writePkg(t, `package p

func fixpoint(rel interface{ Insert(x int) bool }) {
	for {
		if !rel.Insert(1) {
			break
		}
	}
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	if findings[0].Pos.Line != 4 {
		t.Errorf("finding at line %d, want 4", findings[0].Pos.Line)
	}
}

func TestBudgetCallSatisfies(t *testing.T) {
	dir := writePkg(t, `package p

type budget struct{}

func (budget) Round() error { return nil }

func fixpoint(rel interface{ Insert(x int) bool }, b budget) {
	for {
		if b.Round() != nil {
			return
		}
		if !rel.Insert(1) {
			break
		}
	}
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestHelperCallSatisfiesOneLevel(t *testing.T) {
	dir := writePkg(t, `package p

type budget struct{}

func (budget) Tick(n int) error { return nil }

func tick(b budget) error { return b.Tick(1) }

func fixpoint(rel interface{ Insert(x int) bool }, b budget) {
	for {
		if tick(b) != nil {
			return
		}
		if !rel.Insert(1) {
			break
		}
	}
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestIgnoreComment(t *testing.T) {
	dir := writePkg(t, `package p

func fixpoint(rel interface{ Insert(x int) bool }) {
	// budgetcheck:ignore — bounded by construction
	for {
		if !rel.Insert(1) {
			break
		}
	}
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestRangeLoopsAndPlainLoopsExempt(t *testing.T) {
	dir := writePkg(t, `package p

func load(rel interface{ Insert(x int) bool }, xs []int) {
	for _, x := range xs {
		rel.Insert(x)
	}
	for i := 0; i < 3; i++ {
		_ = i
	}
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestFuncLitInsideLoopIsSeen(t *testing.T) {
	dir := writePkg(t, `package p

func fixpoint(rel interface{ Insert(x int) bool }) {
	for {
		f := func() bool { return rel.Insert(1) }
		if !f() {
			break
		}
	}
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
}

func TestFlagsGoroutineMaterializingWithoutBudget(t *testing.T) {
	// A range loop is exempt from the loop rule, but inside a goroutine the
	// spawn rule still demands a budget call: fan-out must propagate
	// cancellation.
	dir := writePkg(t, `package p

func fanout(rel interface{ Insert(x int) bool }, parts [][]int) {
	for _, part := range parts {
		part := part
		go func() {
			for _, x := range part {
				rel.Insert(x)
			}
		}()
	}
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	if findings[0].Pos.Line != 6 {
		t.Errorf("finding at line %d, want 6", findings[0].Pos.Line)
	}
}

func TestGoroutineWithBudgetPasses(t *testing.T) {
	dir := writePkg(t, `package p

type budget struct{}

func (budget) Tick() error { return nil }

func fanout(rel interface{ Insert(x int) bool }, b budget, part []int) {
	go func() {
		for _, x := range part {
			if b.Tick() != nil {
				return
			}
			rel.Insert(x)
		}
	}()
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestFlagsNamedFunctionSpawn(t *testing.T) {
	dir := writePkg(t, `package p

var r interface{ InsertAll(xs []int) int }

func work(xs []int) { r.InsertAll(xs) }

func fanout(xs []int) {
	go work(xs)
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
}

func TestFlagsPoolWorkerWithoutBudget(t *testing.T) {
	dir := writePkg(t, `package p

import "sepdl/internal/par"

func fanout(rel interface{ Insert(x int) bool }, parts [][]int) {
	par.Run(len(parts), func(i int) {
		for _, x := range parts[i] {
			rel.Insert(x)
		}
	})
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
}

func TestIgnoreCommentOnSpawn(t *testing.T) {
	dir := writePkg(t, `package p

func fanout(rel interface{ Insert(x int) bool }, part []int) {
	// budgetcheck:ignore — bounded by construction
	go func() {
		for _, x := range part {
			rel.Insert(x)
		}
	}()
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestFlagsCacheFillWithoutBudget(t *testing.T) {
	dir := writePkg(t, `package p

type cache struct{}

func (cache) Put(k string, v []int) {}

func FromRows(rows [][]int) []int { return rows[0] }

func fill(c cache, rows [][]int) {
	c.Put("k", FromRows(rows))
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	if !strings.Contains(findings[0].Msg, "cache-fill") {
		t.Errorf("finding %q should mention cache-fill", findings[0].Msg)
	}
}

func TestCacheFillWithBudgetPasses(t *testing.T) {
	dir := writePkg(t, `package p

type cache struct{}

func (cache) Put(k string, v []int) {}

type budget struct{}

func (budget) AddDerived(n, w int) {}

func FromRows(rows [][]int) []int { return rows[0] }

func fill(c cache, b budget, rows [][]int) {
	v := FromRows(rows)
	b.AddDerived(len(v), 1)
	c.Put("k", v)
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestPutWithoutMaterializingExempt(t *testing.T) {
	// Publishing an already-built relation (no materializing call in the
	// same function) is bookkeeping, not evaluation work.
	dir := writePkg(t, `package p

type cache struct{}

func (cache) Put(k string, v []int) {}

func publish(c cache, v []int) {
	c.Put("k", v)
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

// TestRealPackagesClean pins the repo invariant itself: the evaluation and
// strategy packages must stay budgetcheck-clean.
func TestRealPackagesClean(t *testing.T) {
	for _, dir := range []string{"../eval", "../core", "../counting", "../hn", "../tabling", "../magic", "../aho", "../wal"} {
		findings, err := CheckDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s", dir, f)
		}
	}
}

func TestFlagsReplayLoopWithoutBudget(t *testing.T) {
	dir := writePkg(t, `package p

type sink interface {
	AddFact(pred string, args []string) error
}

func replay(s sink, recs [][]string) error {
	for _, r := range recs {
		if err := s.AddFact(r[0], r[1:]); err != nil {
			return err
		}
	}
	return nil
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	if !strings.Contains(findings[0].Msg, "replay loop") || !strings.Contains(findings[0].Msg, "AddFact") {
		t.Fatalf("finding = %v, want a replay-loop AddFact violation", findings[0])
	}
}

func TestReplayLoopWithTickPasses(t *testing.T) {
	dir := writePkg(t, `package p

type sink interface {
	LoadFacts(src string) error
}

type ticker interface{ Tick() error }

func replay(s sink, tick ticker, chunks []string) error {
	for _, c := range chunks {
		if err := tick.Tick(); err != nil {
			return err
		}
		if err := s.LoadFacts(c); err != nil {
			return err
		}
	}
	return nil
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestForLoopReplayFlagged(t *testing.T) {
	// The fourth rule also covers plain for loops: a segment-replay loop
	// stepping an offset through decoded records.
	dir := writePkg(t, `package p

type sink interface {
	LoadProgram(src string) error
}

func replaySegment(s sink, recs []string) error {
	for i := 0; i < len(recs); i++ {
		if err := s.LoadProgram(recs[i]); err != nil {
			return err
		}
	}
	return nil
}
`)
	findings, err := CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	if !strings.Contains(findings[0].Msg, "replay loop") {
		t.Fatalf("finding = %v, want a replay-loop violation", findings[0])
	}
}
