// Command sepvet runs the repo's static-analysis suite (internal/lint)
// over the module: five std-lib analyzers enforcing the engine's runtime
// invariants — budgetcheck (materializing loops consult the evaluation
// budget), walorder (durable writes append+fsync before applying),
// snapshotcheck (published snapshots are immutable), errcodecheck
// (errors cross the HTTP/exit boundary through internal/errcode), and
// leakreg (long-lived OS handles register with internal/leakcheck) —
// plus the driver's own directive checks (stale or
// unjustified sepvet:ignore comments are findings too).
//
// Usage:
//
//	sepvet [-json] [-skip dir,dir] [-analyzers a,b] [dir ...]
//
// With no directories, sepvet walks the module from the current
// directory: every package holding non-test Go files is analyzed except
// testdata, hidden directories, and -skip entries — opting a package out
// of analysis is an explicit, reviewable act, not a missing list entry.
//
// Exit status follows the sepdl check convention: 0 clean, 1 findings,
// 2 usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sepdl/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process plumbing, so tests can pin the output
// and exit codes. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sepvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as JSON")
		skip      = fs.String("skip", "", "comma-separated module-relative directories to exclude from the walk")
		analyzers = fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: sepvet [-json] [-skip dir,dir] [-analyzers a,b] [dir ...]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "analyzers:")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := lint.Options{}
	if *skip != "" {
		opts.Skip = strings.Split(*skip, ",")
	}
	if *analyzers != "" {
		all := make(map[string]*lint.Analyzer)
		for _, a := range lint.All() {
			all[a.Name] = a
		}
		for _, name := range strings.Split(*analyzers, ",") {
			a, ok := all[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "sepvet: unknown analyzer %q\n", name)
				return 2
			}
			opts.Analyzers = append(opts.Analyzers, a)
		}
		// A partial suite cannot judge directives aimed at the analyzers
		// that did not run.
		opts.NoDirectiveChecks = true
	}
	if fs.NArg() > 0 {
		opts.Dirs = fs.Args()
	}

	findings, err := lint.Check(".", opts)
	if err != nil {
		fmt.Fprintln(stderr, "sepvet:", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "sepvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "sepvet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// findingJSON is the wire form of one finding; the report is a single
// document so CI can store it as an artifact and tools can parse it
// without line-splitting.
type findingJSON struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Msg      string `json:"msg"`
}

type reportJSON struct {
	Findings []findingJSON `json:"findings"`
	Count    int           `json:"count"`
}

func writeJSON(w io.Writer, findings []lint.Finding) error {
	report := reportJSON{Findings: make([]findingJSON, 0, len(findings)), Count: len(findings)}
	for _, f := range findings {
		report.Findings = append(report.Findings, findingJSON{
			Analyzer: f.Analyzer,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Msg:      f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
