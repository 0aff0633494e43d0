package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// writeFixture writes the path/edge program and a small chain.
func writeFixture(t *testing.T) (rules, facts string) {
	t.Helper()
	dir := t.TempDir()
	rules = filepath.Join(dir, "rules.dl")
	facts = filepath.Join(dir, "facts.dl")
	prog := "path(X, Y) :- e(X, W) & path(W, Y).\npath(X, Y) :- e(X, Y).\n"
	var b strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "e(v%d, v%d).\n", i, i+1)
	}
	if err := os.WriteFile(rules, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(facts, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return rules, facts
}

// syncWriter serializes writes so the test can scan partial output while
// run is still writing to it.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// listenAddr scans stdout for the readiness line and returns the bound
// address.
func listenAddr(t *testing.T, out *syncWriter) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		sc := bufio.NewScanner(strings.NewReader(out.String()))
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "sepdld: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				return addr
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line in output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeQueryDrainExit drives the full lifecycle in-process: boot,
// answer a query and a batch over real HTTP, SIGTERM, drain, exit 0.
func TestServeQueryDrainExit(t *testing.T) {
	rules, facts := writeFixture(t)
	var stdout, stderr syncWriter
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-program", rules, "-facts", facts,
			"-drain-grace", "10s"}, &stdout, &stderr, sig)
	}()
	addr := listenAddr(t, &stdout)
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"query": "path(v0, Y)?"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"v10"`)) {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	// One batch: two constants of the same form in one seeded fixpoint.
	resp, err = http.Post(base+"/v1/batch", "application/json",
		strings.NewReader(`{"queries": ["path(v0, Y)?", "path(v5, Y)?"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var batch struct {
		Results []struct {
			Rows [][]string `json:"rows"`
		} `json:"results"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &batch) != nil || len(batch.Results) != 2 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	if !slices.ContainsFunc(batch.Results[0].Rows, func(r []string) bool { return slices.Contains(r, "v10") }) {
		t.Fatalf("batch v0 answer missing chain end v10: %s", body)
	}

	// SIGTERM: drain and exit clean.
	sig <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server never exited\nstdout:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "sepdld: drained; exiting") {
		t.Fatalf("no drain report:\n%s", stdout.String())
	}

	// Post-exit the port is closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still up after exit")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "-program is required"},
		{[]string{"-program", "no-such-file.dl"}, 1, "no-such-file.dl"},
		// A retired flag is a usage error, never silently ignored.
		{[]string{"-prepared-ttl", "1m"}, 2, "flag provided but not defined: -prepared-ttl"},
	}
	for _, tc := range cases {
		var stdout, stderr syncWriter
		if code := run(tc.args, &stdout, &stderr, make(chan os.Signal)); code != tc.code {
			t.Errorf("%q: exit = %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%q: stderr lacks %q:\n%s", tc.args, tc.stderr, stderr.String())
		}
	}
}

func TestStrictFlagRejectsDirtyProgram(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.dl")
	// Singleton variable: a warning the strict pass rejects.
	if err := os.WriteFile(rules, []byte("q(X) :- e(X, Unused).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr syncWriter
	if code := run([]string{"-program", rules, "-strict"}, &stdout, &stderr, make(chan os.Signal)); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
}
