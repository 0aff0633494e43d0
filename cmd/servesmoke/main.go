// Command servesmoke is the end-to-end smoke test behind make serve-smoke:
// it boots a real sepdld process on a loopback port, answers a query and a
// batch over HTTP, then SIGTERMs the server mid-load and asserts
// a clean drain — exit 0, the drain report on stdout, in-flight requests
// answered, new ones shed with 503 + Retry-After.
//
// Usage:
//
//	servesmoke              # builds sepdld from ./cmd/sepdld first
//	servesmoke -bin ./sepdld
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const chain = 50

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servesmoke", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bin := fs.String("bin", "", "sepdld binary to exercise (default: build ./cmd/sepdld)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := smoke(*bin, stdout); err != nil {
		fmt.Fprintln(stderr, "servesmoke: FAIL:", err)
		return 1
	}
	fmt.Fprintln(stdout, "servesmoke: PASS")
	return 0
}

func smoke(bin string, stdout io.Writer) error {
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if bin == "" {
		bin = filepath.Join(dir, "sepdld")
		build := exec.Command("go", "build", "-o", bin, "./cmd/sepdld")
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building sepdld: %v\n%s", err, out)
		}
	}

	rules := filepath.Join(dir, "rules.dl")
	facts := filepath.Join(dir, "facts.dl")
	prog := "path(X, Y) :- e(X, W) & path(W, Y).\npath(X, Y) :- e(X, Y).\n"
	var fb strings.Builder
	for i := 0; i < chain; i++ {
		fmt.Fprintf(&fb, "e(v%d, v%d).\n", i, i+1)
	}
	if err := os.WriteFile(rules, []byte(prog), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(facts, []byte(fb.String()), 0o644); err != nil {
		return err
	}

	// The drain delay keeps the listener answering (503 + Retry-After) for
	// a moment after SIGTERM, so the smoke can assert the shedding path
	// rather than racing the listener close.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-program", rules, "-facts", facts,
		"-drain-grace", "20s", "-drain-delay", "500ms")
	var serverOut syncBuffer
	cmd.Stdout = &serverOut
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	// If anything below fails, don't leave the server running.
	defer cmd.Process.Kill()

	// The readiness handshake: sepdld prints its bound address after the
	// listener is up, so -addr :0 works without a port race.
	addr, err := waitListenAddr(&serverOut, 30*time.Second)
	if err != nil {
		return err
	}
	base := "http://" + addr
	fmt.Fprintf(stdout, "servesmoke: server up at %s\n", base)

	// One open query.
	body, err := post(base+"/v1/query", `{"query": "path(v0, Y)?"}`)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if !strings.Contains(body, fmt.Sprintf("%q", fmt.Sprintf("v%d", chain))) {
		return fmt.Errorf("query answer missing chain end: %s", body)
	}

	// One batch: two constants of the same form in one seeded fixpoint.
	body, err = post(base+"/v1/batch", `{"queries": ["path(v0, Y)?", "path(v25, Y)?"]}`)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	var batch struct {
		Results []struct {
			Rows [][]string `json:"rows"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		return fmt.Errorf("batch response not JSON: %v: %s", err, body)
	}
	if len(batch.Results) != 2 {
		return fmt.Errorf("batch returned %d results, want 2: %s", len(batch.Results), body)
	}
	end := fmt.Sprintf("v%d", chain)
	if !slices.ContainsFunc(batch.Results[0].Rows, func(r []string) bool { return slices.Contains(r, end) }) {
		return fmt.Errorf("batch v0 answer missing chain end %s: %s", end, body)
	}
	fmt.Fprintln(stdout, "servesmoke: query and batch answered")

	// Background load, then SIGTERM mid-flight. After the drain flips,
	// every response must be a clean outcome: 200 (admitted before the
	// signal), 503 with Retry-After (shed while draining), or a connection
	// error (listener already closed). Anything else fails the smoke.
	var ok200, shed503, connErr, other atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/query", "application/json",
					strings.NewReader(`{"query": "path(v0, Y)?"}`))
				if err != nil {
					connErr.Add(1)
					time.Sleep(5 * time.Millisecond)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					ok200.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
					shed503.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	// Let the load get going before signalling.
	deadline := time.Now().Add(10 * time.Second)
	for ok200.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}

	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("server exit: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server did not exit within 30s of SIGTERM")
	}
	close(stop)
	wg.Wait()

	fmt.Fprintf(stdout, "servesmoke: under SIGTERM: %d ok, %d shed (503+Retry-After), %d conn-closed, %d other\n",
		ok200.Load(), shed503.Load(), connErr.Load(), other.Load())
	if other.Load() > 0 {
		return fmt.Errorf("%d responses were neither 200, 503+Retry-After, nor connection errors", other.Load())
	}
	if ok200.Load() == 0 {
		return fmt.Errorf("no successful requests before the drain")
	}
	if shed503.Load() == 0 {
		return fmt.Errorf("no request was shed with 503 + Retry-After during the drain window")
	}
	if !strings.Contains(serverOut.String(), "sepdld: drained; exiting") {
		return fmt.Errorf("no drain report in server output:\n%s", serverOut.String())
	}
	return nil
}

// waitListenAddr polls the server's collected stdout for the readiness
// line and returns the bound address.
func waitListenAddr(out *syncBuffer, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		sc := bufio.NewScanner(strings.NewReader(out.String()))
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "sepdld: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				return addr, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("server never reported its address; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// post sends one JSON body and returns the response body, failing on any
// non-200 status.
func post(url, body string) (string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return string(b), nil
}

// syncBuffer is a mutex-guarded byte buffer: the scanner goroutine tees
// into it while the main goroutine reads the accumulated output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
