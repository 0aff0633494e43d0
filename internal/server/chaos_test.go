package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sepdl"
	"sepdl/internal/faultinject"
	"sepdl/internal/leakcheck"
)

// The chaos suite points the faultinject network toolkit at a live
// server: malformed bodies, connections that die mid-request, clients
// that trickle or stop reading. After every abuse the invariants are the
// same — the server still answers a well-formed query, the engine's
// in-flight gauge is back to zero (no wedged admission slots), and no
// goroutine outlives its connection.

// newChaosServer starts a server with tight HTTP timeouts so stalled
// clients are cut off within the test's patience.
func newChaosServer(t *testing.T, e *sepdl.Engine, readTO, writeTO time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s := New(e, Config{})
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ReadTimeout = readTO
	ts.Config.WriteTimeout = writeTO
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// assertAlive fails the test unless the server still answers a
// well-formed query and the engine holds no admission slot.
func assertAlive(t *testing.T, e *sepdl.Engine, url string) {
	t.Helper()
	code, _, v := post(t, url+"/v1/query", `{"query": "path(v0, Y)?"}`)
	if code != http.StatusOK {
		t.Fatalf("server unhealthy after chaos: %d %v", code, v)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight stuck at %d", e.Stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestChaosMalformedJSON(t *testing.T) {
	leakcheck.Check(t)
	e := newTestEngine(t, 5)
	_, ts := newChaosServer(t, e, 5*time.Second, 5*time.Second)

	for i, body := range faultinject.MalformedJSON() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("corpus[%d]: transport error %v", i, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("corpus[%d]: status %d, want 400/413 (body %.80s)", i, resp.StatusCode, raw)
		}
		if !bytes.Contains(raw, []byte(`"class"`)) {
			t.Errorf("corpus[%d]: error response not typed: %.120s", i, raw)
		}
	}
	assertAlive(t, e, ts.URL)
}

func TestChaosMidBodyDisconnect(t *testing.T) {
	leakcheck.Check(t)
	e := newTestEngine(t, 5)
	_, ts := newChaosServer(t, e, 2*time.Second, 2*time.Second)

	// Promise a body, send half of it, vanish. Twenty times.
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n")
		io.Copy(conn, faultinject.BreakAfter([]byte(`{"query": "path(v0, Y)?"`), 12, nil))
		conn.Close()
	}
	assertAlive(t, e, ts.URL)
}

func TestChaosSlowloris(t *testing.T) {
	leakcheck.Check(t)
	e := newTestEngine(t, 5)
	_, ts := newChaosServer(t, e, 300*time.Millisecond, 5*time.Second)

	// Trickle a valid request one byte at a time, far slower than the
	// server's read timeout allows. The server must cut the connection off
	// rather than hold a reader goroutine hostage.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"query": "path(v0, Y)?"}`
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	_, err = io.Copy(conn, faultinject.Dribble([]byte(body), 1, 100*time.Millisecond))
	// Somewhere mid-dribble the server hangs up; the copy may surface that
	// as a write error or the response read below sees EOF. Either proves
	// the timeout fired.
	if err == nil {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		resp, readErr := http.ReadResponse(bufio.NewReader(conn), nil)
		if readErr == nil {
			// Even if a response made it out, it must not be a 200 for a
			// request that arrived after the read deadline.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	assertAlive(t, e, ts.URL)
}

func TestChaosStalledReader(t *testing.T) {
	leakcheck.Check(t)
	// A result big enough that the response cannot fit in kernel socket
	// buffers: the server's write blocks until the client reads — which it
	// never does — and WriteTimeout must break the connection.
	e := newTestEngine(t, 300)
	_, ts := newChaosServer(t, e, 5*time.Second, 500*time.Millisecond)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"query": "path(X, Y)?"}`
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	// Never read. Give the server time to evaluate, fill the buffers, trip
	// the write timeout, and tear down the connection.
	time.Sleep(2 * time.Second)
	conn.Close()

	assertAlive(t, e, ts.URL)
}

func TestChaosCancelMidEvalFreesSlot(t *testing.T) {
	leakcheck.Check(t)
	e := newTestEngine(t, 500,
		sepdl.WithMaxConcurrent(1), sepdl.WithAdmissionWait(5*time.Second))
	_, ts := newChaosServer(t, e, 10*time.Second, 10*time.Second)

	// Client A starts an all-pairs query on the only slot and walks away.
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
	deadline := time.Now().Add(20 * time.Second)
	for e.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	// Client B queues within the admission wait and must get the freed
	// slot: the abandoned evaluation noticed its dead context and released.
	code, _, v := post(t, ts.URL+"/v1/query", `{"query": "path(v0, Y)?"}`)
	if code != http.StatusOK {
		t.Fatalf("query after cancel: %d %v", code, v)
	}
	if st := e.Stats(); st.DeadlineAborts == 0 {
		t.Fatalf("canceled evaluation not counted: %+v", st)
	}
	assertAlive(t, e, ts.URL)
}

func TestChaosStallWriterUnit(t *testing.T) {
	// The StallWriter fault itself, wired the way the bench tool uses it:
	// a response copy into a stalled sink blocks, Release un-blocks it.
	w := faultinject.NewStallWriter(64)
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(w, bytes.NewReader(make([]byte, 4096)))
		done <- err
	}()
	select {
	case <-w.Stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never stalled")
	}
	select {
	case err := <-done:
		t.Fatalf("copy finished while stalled (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	w.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("copy after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("copy never finished after release")
	}
}
