package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sepdl"
	"sepdl/internal/leakcheck"
)

// pathProgram is the transitive-closure family every test serves: a
// separable recursion over a chain e(v0, v1), …, e(v(n-1), vn).
const pathProgram = `
path(X, Y) :- e(X, W) & path(W, Y).
path(X, Y) :- e(X, Y).
`

func chainFacts(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(v%d, v%d).\n", i, i+1)
	}
	return b.String()
}

// newTestEngine builds an engine serving pathProgram over an n-chain.
func newTestEngine(t testing.TB, n int, opts ...sepdl.EngineOption) *sepdl.Engine {
	t.Helper()
	e := sepdl.New(opts...)
	if err := e.LoadProgram(pathProgram); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadFacts(chainFacts(n)); err != nil {
		t.Fatal(err)
	}
	return e
}

// newTestServer wires an engine into a Server and an httptest listener,
// closed on cleanup so the listener is down before any leakcheck
// registered earlier in the test runs.
func newTestServer(t testing.TB, e *sepdl.Engine, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(e, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// fakeClock is a manual clock for quota determinism.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// post sends one JSON body and returns the status, headers, and parsed body.
func post(t testing.TB, url string, body string) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var v map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("response %d not JSON: %v\n%s", resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode, resp.Header, v
}

// sortedRows renders a result document's rows as sorted comma-joined
// strings, so answers from different endpoints compare as sets.
func sortedRows(t testing.TB, res map[string]any) []string {
	t.Helper()
	var out []string
	for _, r := range res["rows"].([]any) {
		var cells []string
		for _, c := range r.([]any) {
			cells = append(cells, c.(string))
		}
		out = append(out, strings.Join(cells, ","))
	}
	slices.Sort(out)
	return out
}

// errClass digs the error class out of a parsed error document.
func errClass(t testing.TB, v map[string]any) string {
	t.Helper()
	e, ok := v["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error object in %v", v)
	}
	c, _ := e["class"].(string)
	return c
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, newTestEngine(t, 5), Config{})

	code, _, v := post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?"}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, v)
	}
	rows := v["rows"].([]any)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5: %v", len(rows), rows)
	}
	stats := v["stats"].(map[string]any)
	if stats["strategy"] == "" {
		t.Fatal("no strategy in stats")
	}

	// EDB query and ground query.
	code, _, v = post(t, ts.URL+"/v1/query", `{"query": "e(v0, Y)?"}`)
	if code != http.StatusOK || len(v["rows"].([]any)) != 1 {
		t.Fatalf("EDB query: %d %v", code, v)
	}
	code, _, v = post(t, ts.URL+"/v1/query", `{"query": "path(v0, v3)?"}`)
	if code != http.StatusOK || v["true"] != true {
		t.Fatalf("ground query: %d %v", code, v)
	}
}

func TestQueryErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, newTestEngine(t, 2000), Config{})

	cases := []struct {
		name  string
		body  string
		code  int
		class string
	}{
		{"missing query", `{}`, http.StatusBadRequest, "bad_request"},
		{"parse error", `{"query": "path(v0"}`, http.StatusBadRequest, "bad_request"},
		{"unknown strategy", `{"query": "path(v0, Y)?", "strategy": "bogus"}`, http.StatusBadRequest, "bad_request"},
		{"library baseline strategy", `{"query": "path(v0, Y)?", "strategy": "counting"}`, http.StatusBadRequest, "bad_request"},
		{"tuple cap", `{"query": "path(v0, Y)?", "max_tuples": 10}`, http.StatusTooManyRequests, "resource"},
		{"unknown field", `{"query": "path(v0, Y)?", "bogus_knob": 1}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, v := post(t, ts.URL+"/v1/query", tc.body)
			if code != tc.code {
				t.Fatalf("status = %d, want %d (%v)", code, tc.code, v)
			}
			if got := errClass(t, v); got != tc.class {
				t.Fatalf("class = %q, want %q", got, tc.class)
			}
		})
	}

	// A hopeless deadline maps to 408.
	code, _, v := post(t, ts.URL+"/v1/query", `{"query": "path(X, Y)?", "deadline_ms": 1}`)
	if code != http.StatusRequestTimeout {
		t.Fatalf("deadline status = %d (%v)", code, v)
	}
	if got := errClass(t, v); got != "deadline" {
		t.Fatalf("deadline class = %q", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, newTestEngine(t, 3), Config{})
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query = %d", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q", resp.Header.Get("Allow"))
	}
}

// TestBatchEndpoint runs many constants of one form in one seeded
// fixpoint and checks every answer against the same query sent alone.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, newTestEngine(t, 10), Config{})
	queries := []string{"path(v0, Y)?", "path(v4, Y)?", "path(v9, Y)?"}
	body, _ := json.Marshal(map[string][]string{"queries": queries})
	code, _, v := post(t, ts.URL+"/v1/batch", string(body))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, v)
	}
	results := v["results"].([]any)
	if len(results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(results), len(queries))
	}
	wantRows := []int{10, 6, 1}
	for i, r := range results {
		rm := r.(map[string]any)
		code, _, single := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"query": %q}`, queries[i]))
		if code != http.StatusOK {
			t.Fatalf("query %s: %d %v", queries[i], code, single)
		}
		got, want := sortedRows(t, rm), sortedRows(t, single)
		if !slices.Equal(got, want) {
			t.Errorf("%s: batch rows %v, /v1/query rows %v", queries[i], got, want)
		}
		if len(got) != wantRows[i] {
			t.Errorf("%s: %d rows, want %d", queries[i], len(got), wantRows[i])
		}
		if bs := rm["stats"].(map[string]any)["batch_size"]; bs != float64(len(queries)) {
			t.Errorf("%s: batch_size = %v, want %d", queries[i], bs, len(queries))
		}
	}

	// A batch mixing query forms is a bad request.
	code, _, v = post(t, ts.URL+"/v1/batch", `{"queries": ["path(v0, Y)?", "path(X, v3)?"]}`)
	if code != http.StatusBadRequest || errClass(t, v) != "bad_request" {
		t.Fatalf("mixed-form batch: %d %v", code, v)
	}
}

// TestNoHandleEndpoints pins the stateless surface: no route issues,
// runs or closes a server-side query handle.
func TestNoHandleEndpoints(t *testing.T) {
	_, ts := newTestServer(t, newTestEngine(t, 3), Config{})
	for _, path := range []string{"/v1/prepare", "/v1/execute", "/v1/close"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"form": "path(v0, Y)?"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestQuotas(t *testing.T) {
	clock := newFakeClock()
	_, ts := newTestServer(t, newTestEngine(t, 5),
		Config{QuotaRPS: 1, QuotaBurst: 2, now: clock.now})

	req := func(client string) (int, http.Header, map[string]any) {
		r, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
			strings.NewReader(`{"query": "path(v0, Y)?"}`))
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("X-Sepdl-Client", client)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		json.NewDecoder(resp.Body).Decode(&v)
		return resp.StatusCode, resp.Header, v
	}

	// Burst of 2, then shed.
	for i := 0; i < 2; i++ {
		if code, _, v := req("alice"); code != http.StatusOK {
			t.Fatalf("request %d: %d %v", i, code, v)
		}
	}
	code, hdr, v := req("alice")
	if code != http.StatusTooManyRequests || errClass(t, v) != "quota" {
		t.Fatalf("third request: %d %v", code, v)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota rejection carries no Retry-After")
	}

	// Another client is unaffected; time refills alice.
	if code, _, _ := req("bob"); code != http.StatusOK {
		t.Fatalf("bob shed by alice's quota: %d", code)
	}
	clock.advance(1500 * time.Millisecond)
	if code, _, _ := req("alice"); code != http.StatusOK {
		t.Fatalf("alice not refilled: %d", code)
	}
}

func TestFactsIngestAndLoad(t *testing.T) {
	_, ts := newTestServer(t, newTestEngine(t, 3), Config{})

	code, _, v := post(t, ts.URL+"/v1/facts", `{"facts": "e(v3, v4). e(v4, v5)."}`)
	if code != http.StatusOK || v["num_facts"] != float64(5) {
		t.Fatalf("facts: %d %v", code, v)
	}
	code, _, v = post(t, ts.URL+"/v1/query", `{"query": "path(v0, v5)?"}`)
	if code != http.StatusOK || v["true"] != true {
		t.Fatalf("query over ingested facts: %d %v", code, v)
	}

	// Appending rules over the wire.
	code, _, v = post(t, ts.URL+"/v1/load", `{"program": "reach(Y) :- path(v0, Y)."}`)
	if code != http.StatusOK {
		t.Fatalf("load: %d %v", code, v)
	}
	code, _, v = post(t, ts.URL+"/v1/query", `{"query": "reach(Y)?"}`)
	if code != http.StatusOK || len(v["rows"].([]any)) != 5 {
		t.Fatalf("query new rule: %d %v", code, v)
	}

	// Bad facts are a client error.
	code, _, v = post(t, ts.URL+"/v1/facts", `{"facts": "e(v0, X)."}`)
	if code != http.StatusBadRequest {
		t.Fatalf("non-ground fact: %d %v", code, v)
	}
}

func TestStrictLoadMapsToCheckClass(t *testing.T) {
	e := sepdl.New(sepdl.WithStrictChecks())
	if err := e.LoadProgram(pathProgram); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, e, Config{})
	// A singleton variable is a warning, which strict mode rejects: 422.
	code, _, v := post(t, ts.URL+"/v1/load", `{"program": "q(X) :- e(X, Unused)."}`)
	if code != http.StatusUnprocessableEntity || errClass(t, v) != "check" {
		t.Fatalf("strict load: %d %v", code, v)
	}
}

func TestOverloadMapsTo503(t *testing.T) {
	leakcheck.Check(t)
	e := newTestEngine(t, 500, sepdl.WithMaxConcurrent(1), sepdl.WithAdmissionWait(5*time.Millisecond))
	_, ts := newTestServer(t, e, Config{RetryAfter: 2 * time.Second})

	// Occupy the only slot with a heavy all-pairs query, deterministically:
	// poll the engine's in-flight gauge until it is admitted. The request is
	// canceled once the test is done with it — its (large) answer is never
	// read.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
			strings.NewReader(`{"query": "path(X, Y)?"}`))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	t.Cleanup(func() { cancel(); <-done })
	deadline := time.Now().Add(20 * time.Second)
	for e.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heavy query never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr, v := post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?"}`)
	if code != http.StatusServiceUnavailable || errClass(t, v) != "overload" {
		t.Fatalf("overflow query: %d %v", code, v)
	}
	if hdr.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", hdr.Get("Retry-After"))
	}
	eb := v["error"].(map[string]any)
	if eb["retry_after_ms"] != float64(2000) {
		t.Fatalf("retry_after_ms = %v", eb["retry_after_ms"])
	}
	cancel()
	<-done

	// The canceled evaluation must release its slot: a follow-up query
	// succeeds once the gauge drops.
	deadline = time.Now().Add(20 * time.Second)
	for e.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled query never released its slot")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, v := post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?"}`); code != http.StatusOK {
		t.Fatalf("query after slot release: %d %v", code, v)
	}
}

func TestHealthzReadyzMetrics(t *testing.T) {
	s, ts := newTestServer(t, newTestEngine(t, 5), Config{})

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("readyz: %d %q", code, body)
	}

	// Generate traffic, then check the counters appear with sane values.
	post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?"}`)
	post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?"}`)
	post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?", "max_tuples": 1}`)
	post(t, ts.URL+"/v1/batch", `{"queries": ["path(v0, Y)?", "path(v1, Y)?"]}`)

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	wantSubstr := []string{
		"sepdl_queries_total 4",
		"sepdl_query_errors_total 1",
		"sepdl_budget_aborts_total 1",
		"sepdl_plan_cache_hits_total 3",
		"sepdl_batches_total 1",
		"sepdl_batch_queries_total 2",
		"sepdl_inflight_queries 0",
		"sepdl_facts 5",
		"sepdl_store_segment_files 0",
		"sepdl_store_block_cache_hits_total 0",
		"sepdl_store_segment_read_bytes_total 0",
		`sepdld_http_requests_total{endpoint="/v1/query",code="200"} 2`,
		`sepdld_http_requests_total{endpoint="/v1/query",code="429"} 1`,
		"sepdld_draining 0",
	}
	for _, w := range wantSubstr {
		if !strings.Contains(body, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
	_ = s

	s.StartDrain()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("readyz draining: %d %q", code, body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "sepdld_draining 1") {
		t.Fatal("metrics missing sepdld_draining 1")
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, newTestEngine(t, 3), Config{MaxBodyBytes: 128})
	huge := `{"query": "path(v0, Y)?", "strategy": "` + strings.Repeat("x", 512) + `"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(huge)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
