package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sepdl/internal/diag"
)

var update = flag.Bool("update", false, "rewrite the check golden files")

// checkCase is one sepdl check invocation with pinned output and exit
// status. Fixtures live in testdata/check; the meta-test below asserts
// that together they produce every non-internal diagnostic code.
type checkCase struct {
	name     string
	file     string
	query    string
	wantExit int
}

var checkCases = []checkCase{
	{"syntax", "syntax.dl", "", 2},
	{"arity", "arity.dl", "", 2},
	{"builtin_def", "builtin_def.dl", "", 2},
	{"builtin_arity", "builtin_arity.dl", "", 2},
	{"builtin_neg", "builtin_neg.dl", "", 2},
	{"unsafe", "unsafe.dl", "", 2},
	{"unsafe_neg", "unsafe_neg.dl", "", 2},
	{"stratify", "stratify.dl", "", 2},
	{"nonlinear", "nonlinear.dl", "", 1},
	{"mutual", "mutual.dl", "", 1},
	{"negrec", "negrec.dl", "", 1},
	{"headshape", "headshape.dl", "", 1},
	{"shifting", "shifting.dl", "", 1},
	{"boundmismatch", "boundmismatch.dl", "", 1},
	{"classoverlap", "classoverlap.dl", "", 1},
	{"disconnected", "disconnected.dl", "", 1},
	{"disconnected_query", "disconnected.dl", "sg(a, Y)?", 1},
	{"deadcode", "deadcode.dl", "t(a, Y)?", 1},
	{"cartesian", "cartesian.dl", "", 1},
	{"singleton", "singleton.dl", "", 1},
	{"noselection", "buys.dl", "buys(X, Y)?", 1},
	{"unknownquery", "buys.dl", "nosuch(a)?", 1},
	{"separable", "buys.dl", "buys(tom, Y)?", 0},
	{"aho", "anc.dl", "anc(adam, Y)?", 0},
	{"nonrecursive", "nonrecursive.dl", "contact(a, Y)?", 1},
}

// runCase invokes the check subcommand on a fixture and returns its stdout
// and exit status.
func runCase(t *testing.T, c checkCase, jsonOut bool) (string, int) {
	t.Helper()
	args := []string{filepath.Join("testdata", "check", c.file)}
	if c.query != "" {
		args = append(args, "-query", c.query)
	}
	if jsonOut {
		args = append(args, "-json")
	}
	var stdout, stderr bytes.Buffer
	code := runCheck(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Fatalf("stderr: %s", stderr.String())
	}
	return stdout.String(), code
}

// compareGolden checks got against the golden file, rewriting it under
// -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create goldens)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestCheckGoldens(t *testing.T) {
	for _, c := range checkCases {
		t.Run(c.name, func(t *testing.T) {
			text, code := runCase(t, c, false)
			if code != c.wantExit {
				t.Errorf("text exit = %d, want %d", code, c.wantExit)
			}
			compareGolden(t, filepath.Join("testdata", "check", c.name+".golden"), text)

			js, code := runCase(t, c, true)
			if code != c.wantExit {
				t.Errorf("json exit = %d, want %d", code, c.wantExit)
			}
			compareGolden(t, filepath.Join("testdata", "check", c.name+".json.golden"), js)
		})
	}
}

// TestCheckJSONRoundTrips pins that -json output survives
// encoding/json: unmarshal into the report type, re-marshal, and compare.
func TestCheckJSONRoundTrips(t *testing.T) {
	for _, c := range checkCases {
		t.Run(c.name, func(t *testing.T) {
			js, _ := runCase(t, c, true)
			var rep checkReport
			if err := json.Unmarshal([]byte(js), &rep); err != nil {
				t.Fatalf("unmarshal: %v\n%s", err, js)
			}
			again, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(again)+"\n" != js {
				t.Errorf("round trip changed the JSON:\n got:\n%s\nwant:\n%s", again, js)
			}
			var rep2 checkReport
			if err := json.Unmarshal(again, &rep2); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, rep2) {
				t.Error("second round trip changed the report")
			}
		})
	}
}

// TestFixturesCoverRegistry asserts every non-internal diagnostic code is
// produced by at least one fixture, so no code ships without a pinned
// example (internal codes are unreachable from parsed source: the parser
// rejects their shapes first).
func TestFixturesCoverRegistry(t *testing.T) {
	produced := make(map[string]bool)
	for _, c := range checkCases {
		js, _ := runCase(t, c, true)
		var rep checkReport
		if err := json.Unmarshal([]byte(js), &rep); err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.Diagnostics {
			produced[d.Code] = true
		}
	}
	for code, info := range diag.Registry {
		if info.Internal {
			if produced[code] {
				t.Errorf("code %s is marked Internal but a fixture produces it; drop the flag", code)
			}
			continue
		}
		if !produced[code] {
			t.Errorf("no fixture produces code %s (%s)", code, info.Summary)
		}
	}
	for code := range produced {
		if _, ok := diag.Registry[code]; !ok {
			t.Errorf("fixtures produce unregistered code %s", code)
		}
	}
}
