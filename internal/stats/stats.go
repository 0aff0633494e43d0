// Package stats implements the measurement the paper compares algorithms
// by: the sizes of the relations an evaluation method constructs while
// answering a query (Definition 4.2). Every strategy in this repository
// reports the peak size of each relation it materializes through a
// Collector.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Collector accumulates per-relation peak sizes and work counters for one
// query evaluation. A nil *Collector is valid and records nothing, so hot
// paths need no nil checks at call sites. A Collector is safe for
// concurrent use: a view's maintenance passes report into the lifetime
// collector that its readers print. Round loops tally their counters in
// locals and report them once per loop (AddRounds), so the lock is not on
// the per-round path.
type Collector struct {
	mu sync.Mutex
	// Sizes maps each materialized relation to the largest size it reached.
	Sizes map[string]int
	// Inserted counts successful tuple insertions into derived relations.
	Inserted int
	// Iterations counts fixpoint (or carry-loop) rounds.
	Iterations int
	// ClosureHits and ClosureMisses count per-start class closures the
	// Separable product evaluator resolved from the cross-query closure
	// cache versus computed (and filled) itself. Zero when the cache is
	// disabled.
	ClosureHits   int
	ClosureMisses int
	// PeakIntermediateBytes is the largest delta any single fixpoint round
	// (or carry-loop step) produced, counted although the delta is a window
	// of the growing total. It is kept separate from Sizes so the
	// per-relation peak-size accounting the paper's §4 claims are checked
	// against is unperturbed.
	PeakIntermediateBytes int64
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{Sizes: make(map[string]int)}
}

// Observe records that relation name currently holds size tuples, keeping
// the maximum across calls.
func (c *Collector) Observe(name string, size int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if size > c.Sizes[name] {
		c.Sizes[name] = size
	}
	c.mu.Unlock()
}

// AddInserted counts n successful insertions into derived relations.
func (c *Collector) AddInserted(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.Inserted += n
	c.mu.Unlock()
}

// AddClosure counts class-closure cache hits and misses (fills).
func (c *Collector) AddClosure(hits, misses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ClosureHits += hits
	c.ClosureMisses += misses
	c.mu.Unlock()
}

// ClosureCounts returns the accumulated closure-cache hits and misses.
func (c *Collector) ClosureCounts() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ClosureHits, c.ClosureMisses
}

// PeakIntermediate returns the largest transient round materialization
// observed, in bytes.
func (c *Collector) PeakIntermediate() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.PeakIntermediateBytes
}

// AddRounds reports one round loop's tallies at once: rounds fixpoint
// rounds, inserted successful insertions into derived relations, and
// peakBytes, the largest delta any of its rounds produced, kept as the
// maximum across calls.
func (c *Collector) AddRounds(rounds, inserted int, peakBytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.Iterations += rounds
	c.Inserted += inserted
	c.PeakIntermediateBytes = max(c.PeakIntermediateBytes, peakBytes)
	c.mu.Unlock()
}

// AddIteration counts one fixpoint round.
func (c *Collector) AddIteration() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.Iterations++
	c.mu.Unlock()
}

// SizesCopy returns a copy of the Sizes map, so callers can publish the
// current sizes (e.g. in a query's Stats) while the collector keeps
// accumulating.
func (c *Collector) SizesCopy() map[string]int {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.Sizes))
	for n, s := range c.Sizes {
		out[n] = s
	}
	return out
}

// MaxRelation returns the name and size of the largest relation observed —
// the quantity the Ω/O claims of §4 are about. It returns ("", 0) when
// nothing was observed.
func (c *Collector) MaxRelation() (string, int) {
	if c == nil {
		return "", 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	best, size := "", 0
	for n, s := range c.Sizes {
		if s > size || (s == size && (best == "" || n < best)) {
			best, size = n, s
		}
	}
	return best, size
}

// TotalSize returns the sum of peak relation sizes.
func (c *Collector) TotalSize() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := 0
	for _, s := range c.Sizes {
		t += s
	}
	return t
}

// String renders the collector sorted by relation name, for tests and CLI
// output.
func (c *Collector) String() string {
	if c == nil {
		return "<no stats>"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.Sizes))
	for n := range c.Sizes {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d inserted=%d", c.Iterations, c.Inserted)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, c.Sizes[n])
	}
	return b.String()
}
