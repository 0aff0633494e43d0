package server

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sepdl"
	"sepdl/internal/leakcheck"
)

// TestDrainMidLoad exercises the SIGTERM story without the signal: under
// steady load, StartDrain must let admitted queries finish, shed every
// new request with a typed 503 + Retry-After, and flip /readyz — with no
// goroutine leaks and no wedged admission slots.
func TestDrainMidLoad(t *testing.T) {
	leakcheck.Check(t)
	e := newTestEngine(t, 50)
	s, ts := newTestServer(t, e, Config{RetryAfter: time.Second})

	const workers = 8
	var (
		wg         sync.WaitGroup
		stop       atomic.Bool
		ok200      atomic.Int64
		shed503    atomic.Int64
		unexpected atomic.Int64
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"query": "path(v0, Y)?"}`))
				if err != nil {
					unexpected.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					shed503.Add(1)
				default:
					unexpected.Add(1)
				}
			}
		}()
	}

	// Let real traffic flow, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for ok200.Load() < 20 {
		if time.Now().After(deadline) {
			t.Fatal("load never got going")
		}
		time.Sleep(time.Millisecond)
	}
	s.StartDrain()

	// New requests are shed with the full typed shape.
	code, hdr, v := post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?"}`)
	if code != http.StatusServiceUnavailable || errClass(t, v) != "drain" {
		t.Fatalf("post-drain query: %d %v", code, v)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("drain rejection carries no Retry-After")
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}

	stop.Store(true)
	wg.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d responses were neither 200 nor drain-503", n)
	}
	if shed503.Load() == 0 {
		t.Fatal("no worker ever saw a drain rejection")
	}

	// Everything admitted completed: the in-flight gauge is back to zero
	// and no admitted evaluation failed.
	st := e.Stats()
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after load stopped", st.InFlight)
	}
	if st.QueryErrors != 0 {
		t.Fatalf("admitted queries failed during drain: %+v", st)
	}

	// A query reaching the engine itself (bypassing the HTTP shed) is
	// rejected typed and counted.
	if _, err := e.Query("path(v0, Y)?"); !errors.Is(err, sepdl.ErrDraining) {
		t.Fatalf("engine query during drain: %v", err)
	}
	st = e.Stats()
	if st.DrainRejections == 0 || st.Overloads < st.DrainRejections {
		t.Fatalf("drain rejections not counted: %+v", st)
	}
}

// TestDrainShedsEveryEndpoint: once draining, every /v1 endpoint sheds
// at the HTTP layer with the typed drain 503 + Retry-After, before any
// request reaches the engine.
func TestDrainShedsEveryEndpoint(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, newTestEngine(t, 10), Config{})
	s.StartDrain()

	cases := []struct{ path, body string }{
		{"/v1/query", `{"query": "path(v0, Y)?"}`},
		{"/v1/batch", `{"queries": ["path(v0, Y)?", "path(v5, Y)?"]}`},
		{"/v1/facts", `{"facts": "e(v10, v11)."}`},
		{"/v1/load", `{"program": "reach(Y) :- path(v0, Y)."}`},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			code, hdr, v := post(t, ts.URL+tc.path, tc.body)
			if code != http.StatusServiceUnavailable || errClass(t, v) != "drain" {
				t.Fatalf("%s during drain: %d %v", tc.path, code, v)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatalf("%s drain rejection carries no Retry-After", tc.path)
			}
			if got := s.Engine().Stats().InFlight; got != 0 {
				t.Fatalf("InFlight = %d", got)
			}
		})
	}
	if n := s.Engine().NumFacts(); n != 10 {
		t.Fatalf("NumFacts = %d after shed writes, want 10", n)
	}
}
