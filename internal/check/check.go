// Package check implements sepdl's static analysis pass: it runs every
// analysis the system knows — well-formedness, stratification, rule lints,
// separability (Definition 2.4), and per-strategy applicability for a
// query — and reports the results as positioned, coded diagnostics
// (internal/diag). It never evaluates the program against a database; per
// §3.1 of the paper, everything here is polynomial in the size of the
// rules alone.
package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sepdl/internal/aho"
	"sepdl/internal/ast"
	"sepdl/internal/core"
	"sepdl/internal/diag"
	"sepdl/internal/parser"
)

// Options configure a check run.
type Options struct {
	// Query is an optional selection query ("buys(john, X)?"). When set,
	// the pass adds query-dependent analyses: reachability, selection
	// classification, and the strategy applicability report.
	Query string
}

// Source parses src and runs the full analysis pass. Syntax failures come
// back as SEP001 diagnostics in the list, never as a Go error, so callers
// render one stream regardless of how far the pass got.
func Source(src string, opts Options) diag.List {
	prog, err := parser.Parse(src)
	if err != nil {
		return diag.List{toSyntaxDiag(err)}
	}
	var q *ast.Atom
	if opts.Query != "" {
		a, err := parser.Query(opts.Query)
		if err != nil {
			// The program itself parsed: report the bad query and keep the
			// query-independent analyses.
			return append(diag.List{toSyntaxDiag(err)}, Program(prog, nil)...).Sorted()
		}
		q = &a
	}
	return Program(prog, q)
}

// toSyntaxDiag converts a parse failure into a SEP001 diagnostic,
// preserving the position when the error is a *parser.Error.
func toSyntaxDiag(err error) diag.Diagnostic {
	var pe *parser.Error
	if errors.As(err, &pe) {
		return pe.Diagnostic()
	}
	return diag.New(diag.CodeSyntax, diag.Error, diag.Pos{}, "%v", err)
}

// Program runs every post-parse analysis on prog, with q as the optional
// query atom. Diagnostics come back sorted by position. When
// well-formedness fails the deeper analyses are skipped: they assume
// consistent arities and safe rules.
func Program(prog *ast.Program, q *ast.Atom) diag.List {
	l := prog.Check()
	if l.HasErrors() {
		return l.Sorted()
	}
	if _, err := prog.Stratify(); err != nil {
		var se *ast.NotStratifiableError
		if errors.As(err, &se) {
			l = append(l, se.Diagnostic())
		} else {
			l = append(l, diag.New(diag.CodeNotStratifiable, diag.Error, diag.Pos{}, "%v", err))
		}
	}
	for _, r := range prog.Rules {
		l = append(l, ruleLints(r)...)
	}
	l = append(l, queryLints(prog, q)...)
	l = append(l, recursions(prog, q)...)
	return l.Sorted()
}

// ruleLints reports per-rule advisory warnings: cartesian-product joins
// (SEP042) and singleton variables (SEP044).
func ruleLints(r ast.Rule) diag.List {
	var l diag.List

	// SEP042: positive non-builtin body atoms are the join's generators;
	// if shared variables (through any body atom, including builtins and
	// negation, which filter the product) do not connect them, the rule
	// multiplies unrelated extents.
	var withVars []ast.Atom
	for _, a := range r.Body {
		if len(a.Vars(nil)) > 0 {
			withVars = append(withVars, a)
		}
	}
	if comps := generatorComponents(withVars); comps > 1 {
		l = append(l, diag.New(diag.CodeCartesian, diag.Warning, r.Head.Pos,
			"rule %s joins %d groups of body atoms that share no variables (cartesian product)", r, comps))
	}

	// SEP044: a variable occurring once joins nothing. '_'-prefixed names
	// opt out.
	count := make(map[string]int)
	firstPos := make(map[string]diag.Pos)
	note := func(a ast.Atom) {
		for _, t := range a.Args {
			if t.IsVar() {
				count[t.Name]++
				if _, ok := firstPos[t.Name]; !ok {
					firstPos[t.Name] = t.Pos
				}
			}
		}
	}
	note(r.Head)
	for _, a := range r.Body {
		note(a)
	}
	var singles []string
	for v, n := range count {
		if n == 1 && !strings.HasPrefix(v, "_") {
			singles = append(singles, v)
		}
	}
	sort.Strings(singles)
	for _, v := range singles {
		l = append(l, diag.New(diag.CodeSingletonVar, diag.Warning, firstPos[v],
			"variable %s occurs only once in rule %s; prefix it with _ if intentional", v, r))
	}
	return l
}

// generatorComponents counts connected components among the positive,
// non-builtin atoms of atoms, where any two atoms sharing a variable (via
// any atom in the slice, builtins and negated atoms included) are
// connected.
func generatorComponents(atoms []ast.Atom) int {
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
	roots := make(map[int]bool)
	for i, a := range atoms {
		if !a.Negated && !ast.Builtin(a.Pred) {
			roots[find(i)] = true
		}
	}
	return len(roots)
}

// queryLints reports query-dependent analyses: the unknown-predicate and
// arity checks on the query itself, no-selection advisories, and dead-code
// detection relative to the query (SEP040/SEP041/SEP043/SEP045). The query
// is not part of the program's source, so the findings about it carry no
// position.
func queryLints(prog *ast.Program, q *ast.Atom) diag.List {
	if q == nil {
		return nil
	}
	var l diag.List
	arities, err := prog.Arities()
	if err != nil {
		return nil // already reported by prog.Check
	}
	if want, known := arities[q.Pred]; !known {
		l = append(l, diag.New(diag.CodeUnknownQuery, diag.Warning, diag.Pos{},
			"query predicate %s is not mentioned by the program; only base facts named %s can answer it", q.Pred, q.Pred))
	} else if want != q.Arity() {
		l = append(l, diag.New(diag.CodeArity, diag.Error, diag.Pos{},
			"query uses %s with arity %d, but the program uses arity %d", q.Pred, q.Arity(), want))
		return l
	}
	if len(q.Args) > 0 && len(constPositions(*q)) == 0 {
		l = append(l, diag.New(diag.CodeNoSelection, diag.Warning, diag.Pos{},
			"query %s has no constants: every strategy degenerates to full bottom-up evaluation", q))
	}

	// Reachability: the rules that can contribute to the query are those
	// for q.Pred and everything q.Pred depends on.
	reach := prog.DependsOn(q.Pred)
	reach[q.Pred] = true
	referenced := make(map[string]bool)
	for _, r := range prog.Rules {
		for _, a := range r.Body {
			referenced[a.Pred] = true
		}
	}
	idb := prog.IDBPreds()
	var preds []string
	for p := range idb {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		if reach[p] {
			continue
		}
		rules := prog.RulesFor(p)
		if !referenced[p] {
			l = append(l, diag.New(diag.CodeUnusedPred, diag.Warning, rules[0].Position(),
				"predicate %s is defined by %d rule(s) but never used by the query or any rule body", p, len(rules)))
			continue
		}
		for _, r := range rules {
			l = append(l, diag.New(diag.CodeUnreachableRule, diag.Warning, r.Position(),
				"rule %s cannot contribute to query %s", r, q))
		}
	}
	return l
}

// recursions analyzes every recursive predicate against Definition 2.4
// and, when a query is given, reports which evaluation strategies apply to
// it (SEP03x warnings, SEP050/SEP051 info reports). A query on a
// nonrecursive derived predicate gets its SEP050 report too, as Explain
// prints it.
func recursions(prog *ast.Program, q *ast.Atom) diag.List {
	var l diag.List
	idb := prog.IDBPreds()
	var preds []string
	for p := range idb {
		preds = append(preds, p)
	}
	sort.Strings(preds)

	// Mutual-recursion groups are reported once per pair, smallest name
	// first, and their members skip the per-predicate analysis (it would
	// repeat the same complaint from each side).
	deps := make(map[string]map[string]bool, len(preds))
	for _, p := range preds {
		deps[p] = prog.DependsOn(p)
	}
	mutual := make(map[string]bool)
	for _, p := range preds {
		for _, o := range preds {
			if p < o && deps[p][o] && deps[o][p] {
				mutual[p], mutual[o] = true, true
				l = append(l, diag.New(diag.CodeMutualRec, diag.Warning, prog.RulesFor(p)[0].Position(),
					"%s and %s are mutually recursive; the paper's program class (§2) has a single recursive predicate per definition", p, o).
					WithRelated(prog.RulesFor(o)[0].Position(), "%s is defined here", o))
			}
		}
	}

	for _, p := range preds {
		queried := q != nil && q.Pred == p
		if mutual[p] || !deps[p][p] && !queried {
			continue // already reported above, or nonrecursive and not queried
		}
		a, err := core.Analyze(prog, p)
		l = append(l, Separability(prog, a, err, q)...)
	}
	return l
}

// Separability reports one predicate's separability findings from the
// caller's analysis of it: a, or the error core.Analyze (or AnalyzeOpts)
// returned instead. A failed Definition 2.4 test is its SEP034–SEP037
// warning; a separable recursion is the SEP051 class report, which a
// nonrecursive predicate (no recursive rule, so no class) does not get.
// Either way, when q queries the predicate, the SEP050 strategy report
// follows.
func Separability(prog *ast.Program, a *core.Analysis, err error, q *ast.Atom) diag.List {
	var l diag.List
	var pred, failed string
	if err != nil {
		var ne *core.NotSeparableError
		if !errors.As(err, &ne) {
			return nil
		}
		d := ne.Diagnostic()
		l, pred, failed = diag.List{d}, ne.Pred, d.Code
	} else if len(a.Classes) == 0 {
		pred = a.Pred // nonrecursive: every rule is an exit rule
	} else {
		relaxed := ""
		if a.AllowDisconnected {
			relaxed = ", condition 4 relaxed (§5)"
		}
		l = diag.List{diag.New(diag.CodeSeparableReport, diag.Info, prog.RulesFor(a.Pred)[0].Position(),
			"%s/%d is a separable recursion with %d equivalence class(es) and %d persistent column(s)%s",
			a.Pred, a.Arity, len(a.Classes), len(a.Pers), relaxed).
			WithExplanation("%s", a.String())}
		pred = a.Pred
	}
	if q != nil && q.Pred == pred {
		l = append(l, strategyReport(prog, a, failed, *q))
	}
	return l
}

// strategyReport builds the SEP050 info diagnostic: one line per
// evaluation strategy saying whether it applies to the query and why. a
// is nil when the recursion failed Definition 2.4 with the finding coded
// failed.
func strategyReport(prog *ast.Program, a *core.Analysis, failed string, q ast.Atom) diag.Diagnostic {
	var lines []string
	addf := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	var sel core.Selection
	var err error
	if a != nil {
		sel, err = a.Classify(q)
	}
	switch {
	case a == nil:
		addf("separable: no (%s)", failed)
	case err != nil:
		addf("separable: no (%v)", err)
	case sel.Kind == core.SelNone:
		addf("separable: no (the query has no selection constants)")
	default:
		addf("separable: yes (%s)", sel.Kind)
	}
	if consts := constPositions(q); err == nil && len(consts) > 0 {
		addf("magic sets: yes (selection constants at columns %s)", renderCols(consts))
	} else {
		addf("magic sets: no benefit (no selection constants to pass sideways)")
	}
	switch {
	case a == nil:
		addf("counting: no (requires a separable recursion)")
		addf("henschen-naqvi: no (requires a separable recursion)")
	case err == nil && (sel.Kind == core.SelFullClass || sel.Kind == core.SelPers):
		addf("counting: yes (%s)", sel.Kind)
		addf("henschen-naqvi: yes (%s)", sel.Kind)
	case err == nil && sel.Kind == core.SelPartial:
		addf("counting: no (partial selection; Lemma 2.1 applies only through the separable schema)")
		addf("henschen-naqvi: no (partial selection)")
	default:
		addf("counting: no (requires a full selection)")
		addf("henschen-naqvi: no (requires a full selection)")
	}
	lines = append(lines, ahoLine(prog, q))
	addf("semi-naive bottom-up: yes (always applies)")
	return diag.New(diag.CodeStrategyReport, diag.Info, diag.Pos{},
		"strategy applicability for query %s", q).
		WithExplanation("%s", strings.Join(lines, "\n"))
}

// ahoLine reports whether Aho-Ullman selection pushing applies: every
// query constant must sit on a stable column of the recursion.
func ahoLine(prog *ast.Program, q ast.Atom) string {
	stable, err := aho.StablePositions(prog, q.Pred)
	if err != nil {
		return fmt.Sprintf("aho-ullman pushing: no (%v)", err)
	}
	isStable := make(map[int]bool, len(stable))
	for _, p := range stable {
		isStable[p] = true
	}
	consts := constPositions(q)
	if len(consts) == 0 {
		return "aho-ullman pushing: no (no selection constants)"
	}
	var unstable []int
	for _, p := range consts {
		if !isStable[p] {
			unstable = append(unstable, p)
		}
	}
	if len(unstable) > 0 {
		return fmt.Sprintf("aho-ullman pushing: no (columns %s are not stable: the recursion rewrites them)", renderCols(unstable))
	}
	return fmt.Sprintf("aho-ullman pushing: yes (constants on stable columns %s)", renderCols(consts))
}

// constPositions returns the 0-based argument positions of q holding
// constants, ascending.
func constPositions(q ast.Atom) []int {
	var out []int
	for i, t := range q.Args {
		if !t.IsVar() {
			out = append(out, i)
		}
	}
	return out
}

// renderCols renders 0-based positions as a 1-based set, e.g. "{1,3}".
func renderCols(cols []int) string {
	parts := make([]string, len(cols))
	for i, p := range cols {
		parts[i] = fmt.Sprintf("%d", p+1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
