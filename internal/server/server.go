// Package server implements sepdld's HTTP/JSON serving layer over an
// Engine: a long-lived process with warm plan and closure caches that
// maps the engine's resilience machinery onto the wire. Admission
// rejections become 503 with Retry-After, resource budgets become 429
// (caps) or 408 (deadlines) via the shared internal/errcode table,
// per-client token-bucket quotas shed hostile clients before they reach
// the engine, and drain mode turns SIGTERM into "finish in-flight, reject
// new, exit clean". Beyond the quota buckets the server keeps no state
// between requests: the engine's plan cache is what compiles a repeated
// query form once, and /v1/batch runs many constants of one form in one
// seeded fixpoint.
//
// Endpoints (all /v1 bodies are JSON; responses carry application/json):
//
//	POST /v1/query    one query                       {"query": "p(a, X)?", ...}
//	POST /v1/batch    many queries, one fixpoint      {"queries": [...], ...}
//	POST /v1/facts    ingest ground facts             {"facts": "e(a, b). e(b, c)."}
//	POST /v1/load     append program rules            {"program": "p(X,Y) :- e(X,Y)."}
//	GET  /healthz     liveness (200 while the process runs)
//	GET  /readyz      readiness (503 once draining)
//	GET  /metrics     Engine.Stats and server counters, Prometheus text
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sepdl"
	"sepdl/internal/errcode"
)

// Config tunes the server; the zero value serves with the defaults noted
// on each field.
type Config struct {
	// DefaultDeadline applies to requests that set no deadline_ms;
	// MaxDeadline caps what a request may ask for (requests above the cap
	// are clamped, not rejected). Zero means no default / no cap.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxTuples, MaxRounds, MaxBytes cap the per-request budget the same
	// way (zero: no default and no cap). A request asking for less keeps
	// its own tighter bound.
	MaxTuples int
	MaxRounds int
	MaxBytes  int64
	// QuotaRPS and QuotaBurst configure the per-client token bucket:
	// QuotaRPS tokens/second refill up to QuotaBurst (default: 2×RPS).
	// QuotaRPS <= 0 disables quotas. Clients are keyed by the
	// X-Sepdl-Client header, falling back to the remote IP.
	QuotaRPS   float64
	QuotaBurst int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the backoff hint attached to 503 overload and drain
	// responses (default 1s; rounded up to whole seconds on the header).
	RetryAfter time.Duration
	// now is the clock, overridable in tests.
	now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = int(2 * c.QuotaRPS)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Server is the HTTP handler wrapping one Engine. Construct with New,
// serve via ServeHTTP (it implements http.Handler) and drain with
// StartDrain.
type Server struct {
	eng    *sepdl.Engine
	cfg    Config
	mux    *http.ServeMux
	quotas *quotas

	mu           sync.Mutex
	httpCodes    map[string]uint64 // "endpoint|status" → responses sent
	quotaRejects uint64
}

// New builds a server over eng. The caller keeps ownership of the engine
// (program/fact loading at boot stays outside).
func New(eng *sepdl.Engine, cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{
		eng:       eng,
		cfg:       cfg,
		mux:       http.NewServeMux(),
		quotas:    newQuotas(cfg.QuotaRPS, cfg.QuotaBurst, cfg.now),
		httpCodes: make(map[string]uint64),
	}
	s.mux.Handle("/v1/query", s.apiHandler("/v1/query", s.handleQuery))
	s.mux.Handle("/v1/batch", s.apiHandler("/v1/batch", s.handleBatch))
	s.mux.Handle("/v1/facts", s.apiHandler("/v1/facts", s.handleFacts))
	s.mux.Handle("/v1/load", s.apiHandler("/v1/load", s.handleLoad))
	s.mux.Handle("/healthz", s.plainHandler("/healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.plainHandler("/readyz", s.handleReadyz))
	s.mux.Handle("/metrics", s.plainHandler("/metrics", s.handleMetrics))
	return s
}

// ServeHTTP dispatches to the endpoint handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain puts the server and its engine into drain mode: queries
// already admitted run to completion; every new /v1 request is rejected
// with 503 + Retry-After; /readyz flips to 503 so load balancers stop
// routing here. Idempotent.
func (s *Server) StartDrain() { s.eng.Drain() }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.eng.Draining() }

// Engine returns the wrapped engine (for smoke tools and tests).
func (s *Server) Engine() *sepdl.Engine { return s.eng }

// Close is a no-op: the server owns no goroutine or resource to release.
// It stays only for callers that still invoke it; call StartDrain for a
// graceful stop.
func (s *Server) Close() {}

// apiHandler wraps a /v1 endpoint with the serving-layer checks every
// request must pass, in shed-cheapest-first order: method, drain, quota,
// body size. The response status is recorded per endpoint for /metrics.
func (s *Server) apiHandler(endpoint string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() { s.countResponse(endpoint, rec.status()) }()
		if r.Method != http.MethodPost {
			rec.Header().Set("Allow", http.MethodPost)
			s.writeError(rec, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s requires POST", endpoint), 0)
			return
		}
		if s.Draining() {
			s.writeError(rec, http.StatusServiceUnavailable, string(errcode.Drain),
				"server is draining; no new requests admitted", s.cfg.RetryAfter)
			return
		}
		if s.quotas != nil {
			if ok, retryIn := s.quotas.allow(clientKey(r)); !ok {
				s.mu.Lock()
				s.quotaRejects++
				s.mu.Unlock()
				s.writeError(rec, http.StatusTooManyRequests, "quota",
					"per-client request quota exhausted", retryIn)
				return
			}
		}
		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
		h(rec, r)
	})
}

// plainHandler wraps the GET endpoints with the same response accounting.
func (s *Server) plainHandler(endpoint string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() { s.countResponse(endpoint, rec.status()) }()
		h(rec, r)
	})
}

// clientKey identifies the quota bucket for a request: the self-declared
// X-Sepdl-Client header when present (cooperating multi-tenant clients),
// else the remote IP (hostile ones).
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Sepdl-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// queryOpts are the per-request evaluation options shared by query and
// batch bodies.
type queryOpts struct {
	Strategy   string `json:"strategy,omitempty"`
	Relaxed    bool   `json:"relaxed,omitempty"`
	Fallback   bool   `json:"fallback,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	MaxTuples  int    `json:"max_tuples,omitempty"`
	MaxRounds  int    `json:"max_rounds,omitempty"`
	MaxBytes   int64  `json:"max_bytes,omitempty"`
}

// options maps the request's knobs onto engine QueryOptions, clamped to
// the server's caps: a client may tighten its budget below the server's,
// never widen it.
func (s *Server) options(o queryOpts) []sepdl.QueryOption {
	var opts []sepdl.QueryOption
	if o.Strategy != "" {
		opts = append(opts, sepdl.WithStrategy(sepdl.Strategy(o.Strategy)))
	}
	if o.Relaxed {
		opts = append(opts, sepdl.WithRelaxedConnectivity())
	}
	if o.Fallback {
		opts = append(opts, sepdl.WithFallback())
	}
	deadline := time.Duration(o.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (deadline <= 0 || deadline > s.cfg.MaxDeadline) {
		deadline = s.cfg.MaxDeadline
	}
	if deadline > 0 {
		opts = append(opts, sepdl.WithDeadline(deadline))
	}
	b := sepdl.Budget{
		MaxTuples: clampInt(o.MaxTuples, s.cfg.MaxTuples),
		MaxRounds: clampInt(o.MaxRounds, s.cfg.MaxRounds),
		MaxBytes:  clampInt64(o.MaxBytes, s.cfg.MaxBytes),
	}
	if b != (sepdl.Budget{}) {
		opts = append(opts, sepdl.WithBudget(b))
	}
	return opts
}

// clampInt resolves a requested bound against a server cap: 0 requests
// the server default; anything above the cap is clamped to it.
func clampInt(req, cap int) int {
	if cap <= 0 {
		return req
	}
	if req <= 0 || req > cap {
		return cap
	}
	return req
}

func clampInt64(req, cap int64) int64 {
	if cap <= 0 {
		return req
	}
	if req <= 0 || req > cap {
		return cap
	}
	return req
}

// resultJSON is the wire form of one *sepdl.Result.
type resultJSON struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// True is set (instead of Rows) for fully ground queries.
	True  *bool     `json:"true,omitempty"`
	Stats statsJSON `json:"stats"`
}

type statsJSON struct {
	Strategy           string `json:"strategy"`
	FallbackFrom       string `json:"fallback_from,omitempty"`
	Iterations         int    `json:"iterations"`
	Inserted           int    `json:"inserted"`
	PlanCacheHit       bool   `json:"plan_cache_hit"`
	ClosureCacheHits   int    `json:"closure_cache_hits"`
	ClosureCacheMisses int    `json:"closure_cache_misses"`
	BatchSize          int    `json:"batch_size"`
	DurationNS         int64  `json:"duration_ns"`
}

func toResultJSON(res *sepdl.Result) resultJSON {
	out := resultJSON{
		Columns: res.Columns,
		Stats: statsJSON{
			Strategy:           string(res.Stats.Strategy),
			FallbackFrom:       string(res.Stats.FallbackFrom),
			Iterations:         res.Stats.Iterations,
			Inserted:           res.Stats.Inserted,
			PlanCacheHit:       res.Stats.PlanCacheHit,
			ClosureCacheHits:   res.Stats.ClosureCacheHits,
			ClosureCacheMisses: res.Stats.ClosureCacheMisses,
			BatchSize:          res.Stats.BatchSize,
			DurationNS:         res.Stats.Duration.Nanoseconds(),
		},
	}
	if len(res.Columns) == 0 {
		truth := res.True()
		out.True = &truth
		out.Rows = [][]string{}
		return out
	}
	out.Rows = res.Rows()
	return out
}

// errorJSON is the wire form of every non-2xx response.
type errorJSON struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	// Class is the errcode class ("overload", "resource", ...) or a
	// server-local one ("quota", "body_too_large", "method_not_allowed").
	Class   string `json:"class"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header with millisecond
	// precision; present on 503 (overload, drain) and 429 quota responses.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// writeError emits one error document, attaching Retry-After when a
// backoff hint is given.
func (s *Server) writeError(w http.ResponseWriter, status int, class, msg string, retryIn time.Duration) {
	if retryIn > 0 {
		secs := int64((retryIn + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, errorJSON{Error: errorBody{
		Class: class, Message: msg, RetryAfterMS: retryIn.Milliseconds(),
	}})
}

// writeEngineError maps an engine error onto the wire via the shared
// errcode table, attaching the overload backoff hint where the taxonomy
// calls for one.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	class := errcode.Classify(err)
	retryIn := time.Duration(0)
	if class == errcode.Overload || class == errcode.Drain {
		retryIn = s.cfg.RetryAfter
	}
	s.writeError(w, class.HTTPStatus(), string(class), err.Error(), retryIn)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // a failed write means the client is gone; nothing to do
}

// decode parses one JSON request body, rejecting malformed, oversized,
// and trailing-garbage bodies with 400 (or 413 when MaxBytesReader
// tripped). It reports whether the handler should continue.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Only EOF may follow the value. dec.More is not enough: it reports
		// false before a stray '}' or ']'.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after JSON body")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), 0)
		return false
	}
	s.writeError(w, http.StatusBadRequest, string(errcode.BadRequest),
		fmt.Sprintf("malformed request body: %v", err), 0)
	return false
}

type queryRequest struct {
	Query string `json:"query"`
	queryOpts
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		s.writeError(w, http.StatusBadRequest, string(errcode.BadRequest), `missing "query"`, 0)
		return
	}
	res, err := s.eng.QueryCtx(r.Context(), req.Query, s.options(req.queryOpts)...)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toResultJSON(res))
}

type batchRequest struct {
	Queries []string `json:"queries"`
	queryOpts
}

type batchResponse struct {
	Results []resultJSON `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, string(errcode.BadRequest), `missing "queries"`, 0)
		return
	}
	results, err := s.eng.QueryBatch(r.Context(), req.Queries, s.options(req.queryOpts)...)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	out := batchResponse{Results: make([]resultJSON, len(results))}
	for i, res := range results {
		out.Results[i] = toResultJSON(res)
	}
	writeJSON(w, http.StatusOK, out)
}

type factsRequest struct {
	Facts string `json:"facts"`
}

func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	var req factsRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.eng.LoadFacts(req.Facts); err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"num_facts": s.eng.NumFacts()})
}

type loadRequest struct {
	Program string `json:"program"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.eng.LoadProgram(req.Program); err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"loaded": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// countResponse records one response for /metrics.
func (s *Server) countResponse(endpoint string, status int) {
	s.mu.Lock()
	s.httpCodes[endpoint+"|"+strconv.Itoa(status)]++
	s.mu.Unlock()
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}
