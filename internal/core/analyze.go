// Package core implements the paper's contribution: detection of separable
// recursions (Definition 2.4), classification of selection queries
// (Definition 2.7), the partial-to-full selection rewrite (Lemma 2.1), and
// the Separable evaluation algorithm (the schema of Figure 2).
package core

import (
	"fmt"
	"sort"
	"strings"

	"sepdl/internal/ast"
	"sepdl/internal/diag"
)

// NotSeparableError reports why a recursion fails Definition 2.4: which of
// the paper's conditions is violated, by which rule, and where that rule
// sits in the source.
type NotSeparableError struct {
	// Condition is the number (1-4) of the violated condition of
	// Definition 2.4, or 0 for violations of the paper's standing
	// assumptions (§2: linear recursion, no mutual recursion, variable
	// heads).
	Condition int
	Reason    string
	// Code is the stable diagnostic code (diag.CodeShifting etc.).
	Code string
	// Pred is the recursive predicate whose definition was analyzed.
	Pred string
	// Rule is the offending rule rendered in source syntax ("" when the
	// failure is not attributable to a single rule).
	Rule string
	// Pos is the source position of the offending rule or atom (zero when
	// the program carries no positions).
	Pos diag.Pos
	// OtherRule and OtherPos cite a second involved rule for condition 3,
	// where two rules' column sets overlap.
	OtherRule string
	OtherPos  diag.Pos
}

func (e *NotSeparableError) Error() string {
	if e.Condition == 0 {
		return "not separable: " + e.Reason
	}
	return fmt.Sprintf("not separable (condition %d of Definition 2.4): %s", e.Condition, e.Reason)
}

// Diagnostic converts the failure into a positioned warning: the program
// still evaluates under Magic Sets or bottom-up strategies, but the
// compiled Separable algorithm (and usually Counting and Henschen-Naqvi)
// does not apply.
func (e *NotSeparableError) Diagnostic() diag.Diagnostic {
	code := e.Code
	if code == "" {
		code = diag.CodeHeadShape
	}
	msg := fmt.Sprintf("%s is not a separable recursion: %s", e.Pred, e.Reason)
	if e.Condition > 0 {
		msg = fmt.Sprintf("%s is not a separable recursion (condition %d of Definition 2.4): %s", e.Pred, e.Condition, e.Reason)
	}
	d := diag.New(code, diag.Warning, e.Pos, "%s", msg)
	if e.OtherRule != "" {
		d = d.WithRelated(e.OtherPos, "conflicts with rule %s", e.OtherRule)
	}
	return d
}

// ClassRule is one recursive rule prepared for evaluation: the rule in
// rectified form, split into the recursive body atom and the nonrecursive
// conjunction a_ij.
type ClassRule struct {
	// Rule is the rectified rule.
	Rule ast.Rule
	// Conj is the rule body with the recursive atom removed — the a_ij of
	// the paper.
	Conj []ast.Atom
	// RecAtom is the body instance of the recursive predicate.
	RecAtom ast.Atom
	// BodyVars are the variables at the class's columns in RecAtom, in
	// column order — V_b(t|e_i) restricted to this rule.
	BodyVars []string
}

// Class is one equivalence class e_i of recursive rules (Definition 2.4,
// condition 3): the rules r_ij whose bound column set t|e_i is Cols.
type Class struct {
	// Cols are the argument positions t|e_i, sorted ascending.
	Cols []int
	// HeadVars are the canonical head variables at Cols (identical for
	// every rule in the class because the definition is rectified) —
	// V_h(t|e_i).
	HeadVars []string
	// Rules are the class's recursive rules in program order.
	Rules []ClassRule
}

// Analysis is the result of separability detection for one recursive
// predicate.
type Analysis struct {
	// Pred is the recursive predicate t.
	Pred string
	// Arity is t's arity.
	Arity int
	// Classes are the equivalence classes e_1..e_n.
	Classes []Class
	// Pers are the persistent column positions t|pers, sorted ascending.
	Pers []int
	// Exit are the rectified nonrecursive rules for t.
	Exit []ast.Rule
	// Dropped counts recursive rules whose nonrecursive part shares no
	// variable with the recursive atom; such rules can only rederive
	// existing tuples and are removed from evaluation.
	Dropped int
	// AllowDisconnected records that condition 4 was not enforced (§5
	// relaxation).
	AllowDisconnected bool
}

// Options configure Analyze.
type Options struct {
	// AllowDisconnected skips condition 4 of Definition 2.4. Per §5 the
	// evaluation algorithm remains correct but loses the focusing effect
	// of the selection constant.
	AllowDisconnected bool
}

// Analyze checks whether the definition of pred in prog is a separable
// recursion and, if so, returns its equivalence-class structure. The cost
// is polynomial in the size of the rules and independent of any database
// (§3.1).
func Analyze(prog *ast.Program, pred string) (*Analysis, error) {
	return AnalyzeOpts(prog, pred, Options{})
}

// AnalyzeOpts is Analyze with options.
func AnalyzeOpts(prog *ast.Program, pred string, opts Options) (*Analysis, error) {
	rules := prog.RulesFor(pred)
	fail := func(e *NotSeparableError) (*Analysis, error) {
		e.Pred = pred
		return nil, e
	}
	// atRule fills the rule citation fields from an original (pre-rectified)
	// rule, keeping the diagnostic anchored in the user's source text.
	atRule := func(e *NotSeparableError, r ast.Rule) (*Analysis, error) {
		e.Rule = r.String()
		if !e.Pos.Known() {
			e.Pos = r.Position()
		}
		return fail(e)
	}
	if len(rules) == 0 {
		return fail(&NotSeparableError{Reason: fmt.Sprintf("no rules define %s", pred)})
	}
	if err := prog.Validate(); err != nil {
		return fail(&NotSeparableError{Reason: err.Error()})
	}
	// §2: the predicates t's definition depends on must not depend back on
	// t (no mutual recursion). Predicates elsewhere in the program that
	// merely use t are irrelevant to evaluating a query on t.
	for q := range prog.DependsOn(pred) {
		if q != pred && prog.DependsOn(q)[pred] {
			return atRule(&NotSeparableError{
				Code:   diag.CodeMutualRec,
				Reason: fmt.Sprintf("%s is mutually recursive with %s", q, pred),
			}, rules[0])
		}
	}
	for _, r := range rules {
		if r.HasNegation() {
			e := &NotSeparableError{
				Code:   diag.CodeNegationInRec,
				Reason: fmt.Sprintf("rule %s contains negation; the paper's program class is pure Horn clauses", r),
			}
			for _, b := range r.Body {
				if b.Negated {
					e.Pos = b.Pos
					break
				}
			}
			return atRule(e, r)
		}
	}
	// Nonlinear rules and head-shape violations are checked against the
	// original rules first so the diagnostic cites the user's own text;
	// RectifyDefinition and SplitDefinition then cannot fail on them.
	for _, r := range rules {
		if n := len(r.BodyOccurrences(pred)); n > 1 {
			return atRule(&NotSeparableError{
				Code:   diag.CodeNonLinear,
				Reason: fmt.Sprintf("rule %s mentions %s %d times in its body; the paper's class is linear recursions", r, pred, n),
			}, r)
		}
		seen := make(map[string]bool, len(r.Head.Args))
		for pos, t := range r.Head.Args {
			if !t.IsVar() {
				return atRule(&NotSeparableError{
					Code:   diag.CodeHeadShape,
					Pos:    t.Pos,
					Reason: fmt.Sprintf("rule %s has constant %q in head position %d (paper §2 requires variable heads)", r, t.Name, pos+1),
				}, r)
			}
			if seen[t.Name] {
				return atRule(&NotSeparableError{
					Code:   diag.CodeHeadShape,
					Pos:    t.Pos,
					Reason: fmt.Sprintf("rule %s repeats variable %s in its head (paper §2 requires distinct head variables)", r, t.Name),
				}, r)
			}
			seen[t.Name] = true
		}
	}
	rect, err := ast.RectifyDefinition(rules, pred)
	if err != nil {
		return fail(&NotSeparableError{Reason: err.Error()})
	}
	recursive, exit, err := ast.SplitDefinition(rect, pred)
	if err != nil {
		return fail(&NotSeparableError{Reason: err.Error()})
	}
	// recIdx maps each rectified recursive rule back to its original rule,
	// so diagnostics cite source text and positions, not canonical %h names.
	var recIdx []int
	for i, r := range rules {
		if len(r.BodyOccurrences(pred)) == 1 {
			recIdx = append(recIdx, i)
		}
	}
	arity := len(rules[0].Head.Args)
	a := &Analysis{Pred: pred, Arity: arity, Exit: exit, AllowDisconnected: opts.AllowDisconnected}

	type ruleInfo struct {
		cr   ClassRule
		orig ast.Rule // the pre-rectification rule, for diagnostics
		cols []int    // t^h_i (== t^b_i by condition 2)
	}
	var infos []ruleInfo
	for ri, r := range recursive {
		orig := rules[recIdx[ri]]
		occ := r.BodyOccurrences(pred)[0]
		rec := r.Body[occ]
		var conjAtoms []ast.Atom
		for i, b := range r.Body {
			if i != occ {
				conjAtoms = append(conjAtoms, b)
			}
		}
		// Variables occurring in the nonrecursive part.
		conjVars := make(map[string]bool)
		for _, b := range conjAtoms {
			for _, t := range b.Args {
				if t.IsVar() {
					conjVars[t.Name] = true
				}
			}
		}
		// Constants in the recursive body atom are outside the paper's
		// program class.
		for p, t := range rec.Args {
			if !t.IsVar() {
				return atRule(&NotSeparableError{
					Code:   diag.CodeHeadShape,
					Pos:    t.Pos,
					Reason: fmt.Sprintf("rule %s has constant %q at position %d of the recursive body atom", orig, t.Name, p+1),
				}, orig)
			}
		}
		// Condition 1: no shifting variables. Heads are rectified, so the
		// head variable of position p is exactly CanonicalHeadVar(p); a
		// head variable at a different position of the body atom shifts.
		headPos := make(map[string]int, arity)
		for p := 0; p < arity; p++ {
			headPos[ast.CanonicalHeadVar(p)] = p
		}
		for q, t := range rec.Args {
			if hp, ok := headPos[t.Name]; ok && hp != q {
				return atRule(&NotSeparableError{
					Condition: 1,
					Code:      diag.CodeShifting,
					Pos:       t.Pos,
					Reason: fmt.Sprintf("rule %s: the variable of head position %d reappears at position %d of the recursive body atom, so a selection on column %d would not stay on its column across iterations",
						orig, hp+1, q+1, hp+1),
				}, orig)
			}
		}
		// t^h_i: head positions sharing a variable with the nonrecursive
		// part; t^b_i: body positions doing so.
		var th, tb []int
		for p := 0; p < arity; p++ {
			if conjVars[ast.CanonicalHeadVar(p)] {
				th = append(th, p)
			}
		}
		for q, t := range rec.Args {
			if conjVars[t.Name] {
				tb = append(tb, q)
			}
		}
		// Condition 2: t^h_i == t^b_i.
		if !equalInts(th, tb) {
			return atRule(&NotSeparableError{
				Condition: 2,
				Code:      diag.CodeBoundMismatch,
				Reason: fmt.Sprintf("rule %s: the nonrecursive part binds head columns %s but body columns %s; they must be equal",
					orig, colSet(th), colSet(tb)),
			}, orig)
		}
		// Persistent positions of this rule must carry the head variable
		// through unchanged; anything else is unsafe or shifting.
		inClass := make(map[int]bool, len(th))
		for _, p := range th {
			inClass[p] = true
		}
		for q, t := range rec.Args {
			if !inClass[q] && t.Name != ast.CanonicalHeadVar(q) {
				return atRule(&NotSeparableError{
					Code: diag.CodeHeadShape,
					Pos:  t.Pos,
					Reason: fmt.Sprintf("rule %s: position %d of the recursive body atom does not carry the head variable through (unsafe or shifting)",
						orig, q+1),
				}, orig)
			}
		}
		// Condition 4: the nonrecursive part is one maximal connected set.
		if !opts.AllowDisconnected && len(conjAtoms) > 1 && !connected(conjAtoms) {
			return atRule(&NotSeparableError{
				Condition: 4,
				Code:      diag.CodeDisconnected,
				Reason: fmt.Sprintf("rule %s: the nonrecursive body atoms form %d maximal connected sets; condition 4 requires one",
					orig, connectedComponents(conjAtoms)),
			}, orig)
		}
		if len(th) == 0 {
			// The rule cannot change any column of t, so it can only
			// rederive existing tuples; drop it from evaluation.
			a.Dropped++
			continue
		}
		bodyVars := make([]string, len(th))
		for i, q := range th {
			bodyVars[i] = rec.Args[q].Name
		}
		infos = append(infos, ruleInfo{
			cr:   ClassRule{Rule: r, Conj: conjAtoms, RecAtom: rec, BodyVars: bodyVars},
			orig: orig,
			cols: th,
		})
	}

	// Condition 3: the column sets partition into equal-or-disjoint
	// classes.
	classFirst := make([]ruleInfo, 0, len(infos)) // first rule of each class
	for _, info := range infos {
		placed := false
		for ci := range a.Classes {
			c := &a.Classes[ci]
			if equalInts(c.Cols, info.cols) {
				c.Rules = append(c.Rules, info.cr)
				placed = true
				break
			}
			if !disjointInts(c.Cols, info.cols) {
				other := classFirst[ci]
				e := &NotSeparableError{
					Condition: 3,
					Code:      diag.CodeClassOverlap,
					Reason: fmt.Sprintf("rule %s binds columns %s, but rule %s binds %s; the sets overlap on %s without being equal, so no equivalence-class partition exists",
						info.orig, colSet(info.cols), other.orig, colSet(other.cols), colSet(intersectInts(info.cols, other.cols))),
					OtherRule: other.orig.String(),
					OtherPos:  other.orig.Position(),
				}
				return atRule(e, info.orig)
			}
		}
		if !placed {
			hv := make([]string, len(info.cols))
			for i, p := range info.cols {
				hv[i] = ast.CanonicalHeadVar(p)
			}
			a.Classes = append(a.Classes, Class{Cols: info.cols, HeadVars: hv, Rules: []ClassRule{info.cr}})
			classFirst = append(classFirst, info)
		}
	}
	// Persistent columns: in no class.
	classed := make(map[int]bool)
	for _, c := range a.Classes {
		for _, p := range c.Cols {
			classed[p] = true
		}
	}
	for p := 0; p < arity; p++ {
		if !classed[p] {
			a.Pers = append(a.Pers, p)
		}
	}
	return a, nil
}

// connected reports whether atoms form a single connected component under
// the shared-variable relation (Definitions 2.1 and 2.2).
func connected(atoms []ast.Atom) bool {
	n := len(atoms)
	if n <= 1 {
		return true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := make(map[string]int)
	for i, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			if j, ok := byVar[t.Name]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[t.Name] = i
			}
		}
	}
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func disjointInts(a, b []int) bool {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, y := range b {
		if set[y] {
			return false
		}
	}
	return true
}

// intersectInts returns the sorted intersection of two sorted column sets.
func intersectInts(a, b []int) []int {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	var out []int
	for _, y := range b {
		if set[y] {
			out = append(out, y)
		}
	}
	sort.Ints(out)
	return out
}

// colSet renders column positions 1-based for diagnostics, e.g. "{1,3}".
func colSet(cols []int) string {
	parts := make([]string, len(cols))
	for i, p := range cols {
		parts[i] = fmt.Sprintf("%d", p+1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// connectedComponents counts maximal connected sets of atoms under the
// shared-variable relation.
func connectedComponents(atoms []ast.Atom) int {
	n := len(atoms)
	if n == 0 {
		return 0
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := make(map[string]int)
	for i, a := range atoms {
		for _, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			if j, ok := byVar[t.Name]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[t.Name] = i
			}
		}
	}
	roots := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		roots[find(i)] = true
	}
	return len(roots)
}

// String summarizes the analysis for humans: the explanation of the
// SEP051 finding that sepdl check and Engine.Explain print.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d is a separable recursion with %d equivalence class(es)\n", a.Pred, a.Arity, len(a.Classes))
	for i, c := range a.Classes {
		cols := make([]string, len(c.Cols))
		for j, p := range c.Cols {
			cols[j] = fmt.Sprintf("%d", p+1)
		}
		fmt.Fprintf(&b, "  e%d: columns {%s}, %d rule(s)\n", i+1, strings.Join(cols, ","), len(c.Rules))
		for _, r := range c.Rules {
			fmt.Fprintf(&b, "    %s\n", r.Rule)
		}
	}
	if len(a.Pers) > 0 {
		cols := make([]string, len(a.Pers))
		for j, p := range a.Pers {
			cols[j] = fmt.Sprintf("%d", p+1)
		}
		fmt.Fprintf(&b, "  persistent columns: {%s}\n", strings.Join(cols, ","))
	}
	fmt.Fprintf(&b, "  %d exit rule(s)", len(a.Exit))
	if a.Dropped > 0 {
		fmt.Fprintf(&b, ", %d no-op recursive rule(s) dropped", a.Dropped)
	}
	return b.String()
}

// ClassFor returns the index of the class whose column set is cols, or -1.
func (a *Analysis) ClassFor(cols []int) int {
	c := append([]int(nil), cols...)
	sort.Ints(c)
	for i := range a.Classes {
		if equalInts(a.Classes[i].Cols, c) {
			return i
		}
	}
	return -1
}
