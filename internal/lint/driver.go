// Package lint implements sepvet, the repo's static-analysis suite: a
// multi-analyzer driver in the style of go/analysis (std-lib only — the
// build environment has no module cache, so golang.org/x/tools is
// unavailable) enforcing the engine's runtime invariants at review time.
// The driver owns package discovery, AST loading, ignore-directive
// handling, and finding collection, so each analyzer is only the rule
// itself. The analyzers (see All): budgetcheck (fixpoint loops must
// consult the evaluation budget), walorder (the durable write path must
// append+fsync before applying), segorder (segment writers follow the
// tmp→fsync→rename→dir-fsync publish ordering), snapshotcheck (published
// snapshots are immutable), errcodecheck (errors cross the HTTP/exit
// boundary through the internal/errcode taxonomy), and leakreg
// (long-lived OS handles register with internal/leakcheck).
//
// Package discovery is walk-based, not list-based: Check walks the module
// root for every directory holding non-test Go files, skipping testdata
// and hidden directories plus an explicit opt-out list. A newly added
// package is therefore analyzed by default; escaping analysis takes a
// visible Skip entry, not the silent absence of an opt-in.
//
// Ignore directives: a finding is suppressed by a comment on its line or
// the line above, of one of the forms
//
//	// sepvet:ignore — justification
//	// sepvet:ignore:analyzer — justification
//	// budgetcheck:ignore — justification   (legacy; budgetcheck only)
//
// A directive must carry a justification (any text after the directive
// word), and a directive that suppresses no finding is itself reported —
// ignores cannot outlive the code they excused. Both of those checks are
// findings from the driver (analyzer name "sepvet") and exit the tool
// nonzero like any rule violation.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named rule set run by the driver.
type Analyzer struct {
	// Name identifies the analyzer in findings, JSON output, and in
	// the sepvet:ignore:<name> directive form.
	Name string
	// Doc is the one-line description sepvet prints in usage.
	Doc string
	// Paths restricts the analyzer to packages whose module-relative
	// directory starts with one of these prefixes; empty means every
	// package. A directory anywhere under "testdata/<Name>" always
	// qualifies, so each analyzer's corpus exercises it regardless of
	// scope.
	Paths []string
	// Run inspects one package and returns its raw findings. The driver
	// applies ignore directives; analyzers must not.
	Run func(p *Pass) []Finding
}

// applies reports whether the analyzer covers the package directory.
func (a *Analyzer) applies(dir string) bool {
	if strings.Contains(dir, "testdata/"+a.Name) {
		return true
	}
	if len(a.Paths) == 0 {
		return true
	}
	for _, p := range a.Paths {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// Pass is everything an analyzer sees of one package.
type Pass struct {
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the package's parsed non-test Go files.
	Files []*ast.File
	// Dir is the package's module-relative directory ("." for the root).
	Dir string
	// Explicit marks a directory the caller listed by hand (rather than
	// one the module walk discovered). Explicitly requested directories
	// get every rule, including ones that scope themselves to specific
	// packages on walked runs.
	Explicit bool
	// Funcs indexes the package's function and method declarations by
	// name, for the one-level call expansion several analyzers use.
	Funcs map[string]*ast.FuncDecl
}

// Finding is one invariant violation (or driver-level directive problem).
type Finding struct {
	// Analyzer is the rule that produced the finding ("sepvet" for the
	// driver's own directive checks).
	Analyzer string
	// Pos is the position of the offending node.
	Pos token.Position
	// Msg describes the violation.
	Msg string
}

func (f Finding) String() string {
	if f.Analyzer == "" {
		return fmt.Sprintf("%s: %s", f.Pos, f.Msg)
	}
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Msg)
}

// All returns the full sepvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Budgetcheck(),
		Walorder(),
		Segorder(),
		Snapshotcheck(),
		Errcodecheck(),
		Leakreg(),
	}
}

// Options configures one driver run.
type Options struct {
	// Dirs are explicit package directories to check; nil walks the
	// module from Root instead.
	Dirs []string
	// Skip lists module-relative directories the walk excludes (each
	// entry also excludes its subdirectories). It is the explicit opt-out
	// replacing the old opt-in directory list; explicit Dirs ignore it.
	Skip []string
	// Analyzers is the suite to run; nil means All().
	Analyzers []*Analyzer
	// NoDirectiveChecks disables the stale-ignore and
	// missing-justification findings. Legacy entry points (CheckDir, the
	// budgetcheck shim running a partial suite) set it, because a
	// directive aimed at an analyzer that did not run would be falsely
	// stale.
	NoDirectiveChecks bool
	// Unscoped applies every analyzer to every directory, ignoring
	// Analyzer.Paths. Unit tests use it to point one analyzer at a
	// synthesized package outside its production scope.
	Unscoped bool

	// explicit records that Dirs was caller-provided (set by Check).
	explicit bool
}

// Check runs the suite over the module rooted at root and returns every
// surviving finding ordered by position.
func Check(root string, opts Options) ([]Finding, error) {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	dirs := opts.Dirs
	explicit := dirs != nil
	if dirs == nil {
		var err error
		dirs, err = Packages(root, opts.Skip)
		if err != nil {
			return nil, err
		}
	}
	opts.explicit = explicit
	var findings []Finding
	for _, dir := range dirs {
		fs, err := checkPackage(root, dir, analyzers, opts)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// Packages walks the module root and returns the module-relative
// directory of every package holding non-test Go files, skipping
// testdata, hidden and underscore directories, nested modules (any
// directory below root with its own go.mod), and the opt-out list.
func Packages(root string, skip []string) ([]string, error) {
	skipSet := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipSet[filepath.ToSlash(s)] = true
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, rerr := filepath.Rel(root, path)
			if rerr != nil {
				return rerr
			}
			if skipSet[filepath.ToSlash(rel)] {
				return filepath.SkipDir
			}
			if path != root {
				if _, serr := os.Stat(filepath.Join(path, "go.mod")); serr == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, rerr := filepath.Rel(root, filepath.Dir(path))
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// checkPackage loads one package, runs every in-scope analyzer, filters
// findings through the ignore directives, and reports directive problems.
func checkPackage(root, dir string, analyzers []*Analyzer, opts Options) ([]Finding, error) {
	full := dir
	if !filepath.IsAbs(full) {
		full = filepath.Join(root, dir)
	}
	fset := token.NewFileSet()
	entries, err := os.ReadDir(full)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(full, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	pass := &Pass{Fset: fset, Files: files, Dir: filepath.ToSlash(dir), Explicit: opts.explicit, Funcs: declaredFuncs(files)}
	dirs := directives(fset, files)

	var findings []Finding
	for _, a := range analyzers {
		if !opts.Unscoped && !a.applies(pass.Dir) {
			continue
		}
		for _, f := range a.Run(pass) {
			if f.Analyzer == "" {
				f.Analyzer = a.Name
			}
			if d := match(dirs, f); d != nil {
				d.used = true
				continue
			}
			findings = append(findings, f)
		}
	}
	if opts.NoDirectiveChecks {
		return findings, nil
	}
	for _, d := range dirs {
		switch {
		case d.reason == "":
			findings = append(findings, Finding{
				Analyzer: "sepvet",
				Pos:      d.pos,
				Msg:      fmt.Sprintf("%s directive without a justification; say why the rule does not apply here", d.word),
			})
		case !d.used:
			findings = append(findings, Finding{
				Analyzer: "sepvet",
				Pos:      d.pos,
				Msg:      fmt.Sprintf("stale %s directive: it suppresses no finding and should be deleted", d.word),
			})
		}
	}
	return findings, nil
}

// declaredFuncs indexes a package's function and method bodies by name.
func declaredFuncs(files []*ast.File) map[string]*ast.FuncDecl {
	funcs := make(map[string]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs[fd.Name.Name] = fd
			}
		}
	}
	return funcs
}

// directive is one parsed ignore comment.
type directive struct {
	pos      token.Position
	word     string // the directive as written, e.g. "sepvet:ignore:walorder"
	analyzer string // the analyzer it names; "" suppresses any analyzer
	reason   string // justification text after the directive word
	lines    [2]int // the suppressed source lines (its own and the next)
	used     bool
}

// directives parses every ignore comment in the package. Recognized
// words: "sepvet:ignore", "sepvet:ignore:<analyzer>", and the legacy
// "budgetcheck:ignore" (scoped to the budgetcheck analyzer). A directive
// must be the start of its comment — prose that merely mentions one
// (documentation, quoted examples) is not a directive.
func directives(fset *token.FileSet, files []*ast.File) []*directive {
	var out []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimLeft(text, " \t")
				for _, word := range []string{"sepvet:ignore", "budgetcheck:ignore"} {
					if !strings.HasPrefix(text, word) {
						continue
					}
					rest := text[len(word):]
					d := &directive{word: word, pos: fset.Position(c.Pos())}
					if word == "budgetcheck:ignore" {
						d.analyzer = "budgetcheck"
					}
					if strings.HasPrefix(rest, ":") {
						name := rest[1:]
						if j := strings.IndexAny(name, " \t"); j >= 0 {
							rest = name[j:]
							name = name[:j]
						} else {
							rest = ""
						}
						d.analyzer = name
						d.word += ":" + name
					}
					d.reason = strings.TrimLeft(rest, " \t-—:")
					d.lines = [2]int{d.pos.Line, d.pos.Line + 1}
					out = append(out, d)
					break
				}
			}
		}
	}
	return out
}

// match returns the directive that suppresses f, if any.
func match(dirs []*directive, f Finding) *directive {
	for _, d := range dirs {
		if d.pos.Filename != f.Pos.Filename {
			continue
		}
		if f.Pos.Line != d.lines[0] && f.Pos.Line != d.lines[1] {
			continue
		}
		if d.analyzer != "" && d.analyzer != f.Analyzer {
			continue
		}
		return d
	}
	return nil
}

// CheckDirWith runs the given analyzers over one package directory,
// bypassing path scoping — the entry point analyzer unit tests use.
// Directive checks stay on, so corpora can include stale-ignore cases.
func CheckDirWith(dir string, analyzers ...*Analyzer) ([]Finding, error) {
	return Check(".", Options{Dirs: []string{dir}, Analyzers: analyzers, Unscoped: true})
}
