// budgetcheck flags evaluation-shaped loops that materialize tuples
// without ever consulting the evaluation budget. The budget invariant
// says every loop that can grow a relation must call one of
// budget.Budget's Round/Tick/AddDerived/Err/TickFunc/Guard hooks, so
// runaway recursions stay cancellable and resource-governed; a loop that
// inserts tuples but never ticks would evaluate to completion no matter
// what limits the caller set.
//
// The heuristic: a non-range for statement whose body (function literals
// included) calls a materializing method (Insert, InsertAll) must also
// call a budget hook, either directly or through one same-package
// function it calls.
//
// A second rule covers parallel fan-out, where the materializing loop is
// often a range over a partitioned chunk (which the first rule exempts):
// any spawned body — a go statement, or the function literal handed to the
// par.Run worker pool — that materializes tuples must reach
// a budget hook itself, directly or through one same-package function.
// A goroutine that inserts without ticking would keep deriving after the
// caller's budget aborts the rest of the evaluation, so cancellation must
// propagate into every spawn.
//
// A third rule covers cache fills: a function that publishes a relation
// into a cache (a Put call) and materializes the tuples it publishes
// (Insert, InsertAll, FromRows, FromTuples) must reach a budget hook.
// Filling a closure cache is evaluation work — the first query pays it —
// and an unaccounted fill would let a cold cache blow straight through
// the caller's tuple and byte limits.
//
// A fourth rule covers WAL replay and checkpoint materialization: any
// loop (for or range) that applies recovered records through a
// RecoverSink method (AddFact, LoadFacts, LoadProgram) must reach a
// budget hook. Boot-time recovery walks input as long as the log, so it
// owes the same cancellation points as a fixpoint — the wal package's
// progress.Tick satisfies it. Because the RecoverSink method names are
// also the engine's public ingest API, this rule would flag every
// bounded fact-loading loop in the CLIs and examples; on walked runs it
// therefore fires only in internal/wal, where replay lives. Explicitly
// listed directories always get the full rule set.
//
// A fifth rule covers the streaming executor's pull loops: any loop (for
// or range) that drains an iterator (a Next call anywhere in the
// statement) and materializes what it pulls (Insert, InsertAll, or a
// sink Add) must reach a budget hook — in the loop itself, through one
// same-package function, or anywhere in the enclosing function
// declaration. The enclosing-function allowance exists because streaming
// rounds hoist the hook to the round boundary (Budget.Round before the
// drain) or push it into the stream's own tick hook; a pull loop in a
// function that never touches the budget at all, though, drains an
// unbounded stream into a relation with no cancellation point. Loops the
// first rule already reports are not reported again.
//
// Exemptions carry a "// sepvet:ignore" (or legacy "// budgetcheck:ignore")
// comment with a justification, on the offending line or the line above.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// materializing are the method names that grow a relation inside a loop.
var materializing = map[string]bool{
	"Insert":    true,
	"InsertAll": true,
}

// replayMaterializing are the RecoverSink methods a WAL replay or
// checkpoint-materialization loop applies recovered records through.
// Replay is evaluation-shaped work over unbounded input (the log can be
// arbitrarily long), so the fourth rule holds it to the same invariant:
// a loop applying these must reach a budget hook, or recovery of a huge
// log could neither be cancelled nor observed.
var replayMaterializing = map[string]bool{
	"AddFact":     true,
	"LoadFacts":   true,
	"LoadProgram": true,
}

// cacheFillMaterializing are the calls that build or grow the relation a
// cache-fill path publishes, checked in this order so findings are
// deterministic. FromRows and FromTuples construct whole relations, which
// the loop rules never see (no loop needed), but a fill that builds its
// payload that way still owes the budget for it.
var cacheFillMaterializing = []string{"Insert", "InsertAll", "FromRows", "FromTuples"}

// pullMaterializing are the calls that grow a relation from inside a
// pull loop, checked in this order so findings are deterministic. Add
// joins the set here (and only here) because the streaming rounds
// accumulate through sink Add methods, which the first rule's narrower
// set never sees; requiring a Next call in the same statement keeps the
// common name from flagging unrelated loops.
var pullMaterializing = []string{"Insert", "InsertAll", "Add"}

// budgetHooks are the budget.Budget calls that satisfy the invariant.
var budgetHooks = map[string]bool{
	"Round":      true,
	"Tick":       true,
	"AddDerived": true,
	"Err":        true,
	"TickFunc":   true,
	"Guard":      true,
}

// Budgetcheck returns the budget-invariant analyzer. It applies to every
// package: materializing loops live in the evaluators and strategies
// today, but the invariant binds any package that grows a relation.
func Budgetcheck() *Analyzer {
	return &Analyzer{
		Name: "budgetcheck",
		Doc:  "fixpoint, spawn, cache-fill, replay, and iterator pull bodies that materialize tuples must reach a budget hook",
		Run:  runBudgetcheck,
	}
}

func runBudgetcheck(p *Pass) []Finding {
	// The replay rule keys on RecoverSink method names, which double as
	// the engine's ingest API; outside the wal package (and explicitly
	// requested directories, including the rule's corpus) a range loop
	// calling AddFact is a bounded load, not a log replay.
	replayScope := p.Explicit || p.Dir == "internal/wal" ||
		strings.Contains(p.Dir, "testdata/budgetcheck")
	var findings []Finding
	// flaggedLoops records the loop statements the first rule reported, so
	// the pull-loop rule never reports the same loop twice.
	flaggedLoops := make(map[token.Pos]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				called := calledNames(fd.Body)
				if !called["Put"] {
					return true
				}
				mat := ""
				for _, name := range cacheFillMaterializing {
					if called[name] {
						mat = name
						break
					}
				}
				if mat == "" || callsBudget(called, p.Funcs, 1) {
					return true
				}
				findings = append(findings, Finding{
					Pos: p.Fset.Position(fd.Pos()),
					Msg: fmt.Sprintf("cache-fill path materializes tuples (%s) and publishes them (Put) without a budget call (Round/Tick/AddDerived/Err/TickFunc/Guard); cache fills must be budget-accounted", mat),
				})
				return true
			}
			var (
				body ast.Node
				kind string
			)
			replayOnly := false
			switch s := n.(type) {
			case *ast.ForStmt:
				body, kind = s.Body, "fixpoint loop"
			case *ast.RangeStmt:
				// Range loops are exempt from the Insert rule (they iterate a
				// bounded chunk), but a range loop replaying recovered records
				// still walks input as long as the log.
				body, kind, replayOnly = s.Body, "replay loop", true
			case *ast.GoStmt:
				body, kind = spawnedBody(s.Call, p.Funcs), "goroutine"
			case *ast.CallExpr:
				body, kind = poolWorkerBody(s), "worker-pool goroutine"
			}
			if body == nil {
				return true
			}
			called := calledNames(body)
			mat := ""
			for name := range called {
				if !replayOnly && materializing[name] {
					mat = name
					break
				}
				if replayScope && replayMaterializing[name] {
					mat, kind = name, "replay loop"
					break
				}
			}
			if mat == "" {
				return true
			}
			if callsBudget(called, p.Funcs, 1) {
				return true
			}
			findings = append(findings, Finding{
				Pos: p.Fset.Position(n.Pos()),
				Msg: fmt.Sprintf("%s materializes tuples (%s) without a budget call (Round/Tick/AddDerived/Err/TickFunc/Guard); see the budget invariant", kind, mat),
			})
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				flaggedLoops[n.Pos()] = true
			}
			return true
		})
	}
	findings = append(findings, pullLoopFindings(p, flaggedLoops)...)
	return findings
}

// pullLoopFindings applies the fifth rule: a loop that drains an
// iterator (calls Next anywhere in the statement — the pull loop's
// init/post for the idiomatic `for b, ok := s.Next(); ok; b, ok =
// s.Next()` shape, or the body) and materializes what it pulls must
// reach a budget hook in the loop, through one same-package function, or
// anywhere in the enclosing function declaration.
func pullLoopFindings(p *Pass, flaggedLoops map[token.Pos]bool) []Finding {
	var findings []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnReaches := callsBudget(calledNames(fd.Body), p.Funcs, 1)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
				default:
					return true
				}
				if flaggedLoops[n.Pos()] {
					return true
				}
				called := calledNames(n)
				if !called["Next"] {
					return true
				}
				mat := ""
				for _, name := range pullMaterializing {
					if called[name] {
						mat = name
						break
					}
				}
				if mat == "" || fnReaches || callsBudget(called, p.Funcs, 1) {
					return true
				}
				findings = append(findings, Finding{
					Pos: p.Fset.Position(n.Pos()),
					Msg: fmt.Sprintf("pull loop drains an iterator (Next) and materializes tuples (%s) without a budget call (Round/Tick/AddDerived/Err/TickFunc/Guard) in the loop or its enclosing function; streaming drains must be budget-accounted", mat),
				})
				return true
			})
		}
	}
	return findings
}

// CheckDir analyzes every non-test Go file in dir with the budgetcheck
// analyzer alone and returns the violations, ordered by position. It is
// the original single-analyzer entry point, kept for compatibility;
// ignore directives are honored but not checked for staleness (a
// directive aimed at another analyzer would be falsely stale here).
func CheckDir(dir string) ([]Finding, error) {
	findings, err := Check(".", Options{
		Dirs:              []string{dir},
		Analyzers:         []*Analyzer{Budgetcheck()},
		NoDirectiveChecks: true,
		Unscoped:          true,
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

// spawnedBody resolves the body a go statement starts running: the
// literal's body for `go func(){...}()`, the declaration's body for
// `go f(...)` when f is a same-package function. Spawns of methods or
// other packages' functions are outside the heuristic's reach.
func spawnedBody(call *ast.CallExpr, funcs map[string]*ast.FuncDecl) ast.Node {
	switch fn := call.Fun.(type) {
	case *ast.FuncLit:
		return fn.Body
	case *ast.Ident:
		if fd, ok := funcs[fn.Name]; ok {
			return fd.Body
		}
	}
	return nil
}

// poolWorkerBody recognizes the repo's worker-pool spawn — par.Run(n,
// func(...){...}) — and returns the worker function literal's body.
func poolWorkerBody(call *ast.CallExpr) ast.Node {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "par" || sel.Sel.Name != "Run" {
		return nil
	}
	for _, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			return fl.Body
		}
	}
	return nil
}

// callsBudget reports whether the called set reaches a budget hook,
// expanding same-package function calls up to depth levels.
func callsBudget(called map[string]bool, funcs map[string]*ast.FuncDecl, depth int) bool {
	for name := range called {
		if budgetHooks[name] {
			return true
		}
	}
	if depth <= 0 {
		return false
	}
	for name := range called {
		if fd, ok := funcs[name]; ok {
			if callsBudget(calledNames(fd.Body), funcs, depth-1) {
				return true
			}
		}
	}
	return false
}

// calledNames collects the terminal names of every call expression under
// n: for pkg.F(...) or recv.M(...) the selector name, for F(...) the
// identifier. Function literals are included — fixpoint bodies often wrap
// work in closures.
func calledNames(n ast.Node) map[string]bool {
	out := make(map[string]bool)
	if n == nil {
		return out
	}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			out[fn.Sel.Name] = true
		case *ast.Ident:
			out[fn.Name] = true
		}
		return true
	})
	return out
}

// reaches reports whether the called-name set contains any of want,
// expanding same-package function calls up to depth levels — the shared
// variant of callsBudget several analyzers use.
func reaches(called map[string]bool, want map[string]bool, funcs map[string]*ast.FuncDecl, depth int) bool {
	for name := range called {
		if want[name] {
			return true
		}
	}
	if depth <= 0 {
		return false
	}
	for name := range called {
		if fd, ok := funcs[name]; ok {
			if reaches(calledNames(fd.Body), want, funcs, depth-1) {
				return true
			}
		}
	}
	return false
}
