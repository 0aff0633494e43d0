package faultinject

// Network-level faults for the serving layer's chaos suite: hostile
// request bodies and connection behaviours a public endpoint meets in the
// wild. Each helper models one client pathology — a slowloris dribbling
// bytes, a mid-body disconnect, a peer that stops reading — so the server
// tests can assert the same invariants the evaluation-level injectors
// enforce: typed error out, no goroutine leak, no wedged admission slot.

import (
	"errors"
	"io"
	"sync"
	"time"
)

// ErrNetFault is the error injected network faults surface by default,
// standing in for a peer reset.
var ErrNetFault = errors.New("faultinject: injected network fault")

// Dribble returns a reader that yields data in chunk-byte pieces with
// delay between pieces — a slowloris client body. A server whose read
// deadline is shorter than len(data)/chunk × delay must cut the request
// off rather than hold a handler (and its admission slot) hostage.
func Dribble(data []byte, chunk int, delay time.Duration) io.Reader {
	if chunk < 1 {
		chunk = 1
	}
	return &dribbleReader{data: data, chunk: chunk, delay: delay}
}

type dribbleReader struct {
	data  []byte
	chunk int
	delay time.Duration
	sent  bool
}

func (d *dribbleReader) Read(p []byte) (int, error) {
	if len(d.data) == 0 {
		return 0, io.EOF
	}
	if d.sent {
		time.Sleep(d.delay)
	}
	d.sent = true
	n := d.chunk
	if n > len(d.data) {
		n = len(d.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, d.data[:n])
	d.data = d.data[n:]
	return n, nil
}

// BreakAfter returns a reader that yields the first n bytes of data and
// then fails with err (ErrNetFault when err is nil) — a client that
// announced a body and died mid-upload. The server's JSON decoder must
// surface a request error, not hang waiting for the rest.
func BreakAfter(data []byte, n int, err error) io.Reader {
	if err == nil {
		err = ErrNetFault
	}
	if n > len(data) {
		n = len(data)
	}
	return io.MultiReader(newEagerReader(data[:n]), &failReader{err: err})
}

// eagerReader serves its payload then keeps failing, without the one
// successful zero-byte read bytes.Reader would interpose.
func newEagerReader(data []byte) io.Reader { return &eagerReader{data: data} }

type eagerReader struct{ data []byte }

func (r *eagerReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

type failReader struct{ err error }

func (r *failReader) Read([]byte) (int, error) { return 0, r.err }

// StallWriter is a writer that accepts n bytes and then blocks every
// further Write until Release is called — a peer that stopped draining its
// receive window. Wrap a response path in it to prove the write side
// honours timeouts instead of wedging a goroutine.
type StallWriter struct {
	mu      sync.Mutex
	remain  int
	release chan struct{}
	once    sync.Once
	// Stalled is closed the first time a Write blocks.
	Stalled chan struct{}
	stallMu sync.Once
}

// NewStallWriter returns a StallWriter that accepts n bytes.
func NewStallWriter(n int) *StallWriter {
	return &StallWriter{remain: n, release: make(chan struct{}), Stalled: make(chan struct{})}
}

// Write consumes up to the writer's remaining allowance, then blocks until
// Release. It never errors: the pathology modelled is silence, not reset.
func (w *StallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	allowed := w.remain
	if allowed > len(p) {
		allowed = len(p)
	}
	w.remain -= allowed
	w.mu.Unlock()
	if allowed == len(p) {
		return allowed, nil
	}
	w.stallMu.Do(func() { close(w.Stalled) })
	<-w.release
	return len(p), nil
}

// Release unblocks every stalled Write, now and in the future.
func (w *StallWriter) Release() { w.once.Do(func() { close(w.release) }) }

// MalformedJSON is a corpus of hostile request bodies for a JSON endpoint:
// truncated documents, type confusion, deep nesting, raw garbage. A server
// must answer each with a client-error status and a well-formed error
// document, leaking nothing.
func MalformedJSON() [][]byte {
	deep := make([]byte, 0, 20000)
	for i := 0; i < 10000; i++ {
		deep = append(deep, '[')
	}
	return [][]byte{
		[]byte(``),
		[]byte(`{`),
		[]byte(`{"query": "p(X)?"`),
		[]byte(`{"query": 42}`),
		[]byte(`{"query": ["p(X)?"]}`),
		[]byte(`"just a string"`),
		[]byte(`{"query": "p(X)?"} trailing garbage {`),
		[]byte(`{"query": "p(X)?"}}`),
		[]byte(`{"query": "p(X)?"}]`),
		[]byte("\x00\x01\x02\xff\xfe"),
		[]byte(`{"deadline_ms": "soon"}`),
		deep,
	}
}
