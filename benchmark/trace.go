package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the program under test carries no spans of its own). Spans
// of one operation share OpID; Parent is the ID of the enclosing span, 0
// for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, opID int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Start: now, ID: id, Parent: parent, OpID: opID})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, each span's duration minus the part
// its direct children cover, in nanoseconds. Children of one parent do
// not overlap here: every client runs one operation at a time.
func (t *tracer) selfTimes() map[string][]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID]))
		}
	}
	return out
}

// traceFileSpans caps what write puts on disk: a ten-second ingest run
// records half a million operation spans, and the file is for reading a
// few requests end to end, not for recomputing the metrics.
const traceFileSpans = 20000

// write stores the first traceFileSpans operation spans and every probe
// span (OpID < 0) as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	kept := make([]span, 0, min(len(t.spans), 2*traceFileSpans))
	ops := 0
	for _, s := range t.spans {
		if s.OpID >= 0 {
			if ops >= traceFileSpans {
				continue
			}
			ops++
		}
		kept = append(kept, s)
	}
	total := len(t.spans)
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		TotalSpans int    `json:"total_spans"`
		Spans      []span `json:"spans"`
	}{workload, seed, total, kept})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
