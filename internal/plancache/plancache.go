// Package plancache implements the cross-query caches behind prepared
// execution: the paper's whole pitch is compile-once/execute-many, so the
// constant-independent artifacts a selection query needs — the Separable
// schema's non-driver class closures here, and the per-form compiled plans
// kept by the engine — must survive the query that computed them.
//
// The package stores only revisioned entries: every key embeds the program
// and database revision it was computed against, so a stale entry can never
// answer a lookup after a write — invalidation is a key mismatch, not a
// synchronization problem. A byte-budgeted LRU bounds memory; the engine
// additionally sweeps entries of dead revisions eagerly so a write-heavy
// workload does not have to wait for LRU turnover to reclaim them.
//
// Cached relations are shared read-only across concurrent queries; callers
// must never mutate a relation obtained from Get, and must only Put
// relations they will not mutate afterwards.
package plancache

import (
	"container/list"
	"sync"

	"sepdl/internal/rel"
)

// Scope identifies the snapshot a closure was computed against: the program
// revision, the database revision, and the analyzed predicate (with its
// condition-4 relaxation, which changes the class structure). Two queries
// share cached closures exactly when their scopes are equal.
type Scope struct {
	// ProgRev and DBRev are the engine's revision counters at snapshot
	// time; any write bumps the corresponding counter, so entries of older
	// revisions can never match a post-write lookup.
	ProgRev uint64
	DBRev   uint64
	// Pred is the recursive predicate whose analysis produced the class.
	Pred string
	// Relaxed records core.Options.AllowDisconnected, which yields a
	// different class structure for the same predicate.
	Relaxed bool
}

// ClosureKey identifies one memoized closure: a scope, an equivalence
// class (by its column set, rendered canonically), and the start vector
// the closure was chased from (the injective byte encoding of its interned
// values).
type ClosureKey struct {
	Scope Scope
	// Class is the class's canonical column-set key, e.g. "1,2".
	Class string
	// Start is the encoded start vector over the class columns.
	Start string
}

// entryOverhead is the estimated per-entry bookkeeping cost charged on top
// of the relation's tuple bytes: map entry, list element, key strings.
const entryOverhead = 160

// DefaultMaxBytes is the closure cache's default byte budget.
const DefaultMaxBytes = 64 << 20

// Closures is a byte-budgeted LRU cache of per-start class closures. It is
// safe for concurrent use: the engine's concurrent queries share it.
type Closures struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[ClosureKey]*list.Element

	hits      uint64
	misses    uint64
	evictions uint64
}

type closureEntry struct {
	key   ClosureKey
	set   *rel.Relation
	bytes int64
}

// NewClosures returns a cache bounded by maxBytes (DefaultMaxBytes when
// maxBytes is 0). A single entry larger than the whole budget is still
// admitted alone; the budget is a target, not a per-entry filter, so one
// huge closure cannot disable caching entirely.
func NewClosures(maxBytes int64) *Closures {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Closures{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[ClosureKey]*list.Element),
	}
}

// relBytes estimates the storage a cached relation pins: its tuples (4
// bytes per cell, matching the budget package's estimate) plus the set map.
func relBytes(r *rel.Relation) int64 {
	return int64(r.Len()) * int64(r.Arity()+1) * 8
}

// Get returns the closure cached under k, or nil. The returned relation is
// shared: callers must treat it as immutable.
func (c *Closures) Get(k ClosureKey) *rel.Relation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*closureEntry).set
}

// Put stores set under k, evicting least-recently-used entries until the
// byte budget holds again. Re-putting an existing key refreshes its
// recency and replaces its value (concurrent fillers of the same key
// compute identical sets, so either copy is fine). The caller must not
// mutate set afterwards.
func (c *Closures) Put(k ClosureKey, set *rel.Relation) {
	if c == nil || set == nil {
		return
	}
	b := relBytes(set) + int64(len(k.Start)+len(k.Class)+len(k.Scope.Pred)) + entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		ent := el.Value.(*closureEntry)
		c.bytes += b - ent.bytes
		ent.set, ent.bytes = set, b
		c.ll.MoveToFront(el)
	} else {
		ent := &closureEntry{key: k, set: set, bytes: b}
		c.entries[k] = c.ll.PushFront(ent)
		c.bytes += b
	}
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		c.evictOldestLocked()
	}
}

func (c *Closures) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*closureEntry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.bytes
	c.evictions++
}

// Invalidate drops every entry whose scope fails keep. The engine sweeps
// with it on writes: entries of dead revisions can no longer match any
// lookup (their keys embed the old revision), so this only reclaims their
// memory early instead of waiting for LRU turnover.
func (c *Closures) Invalidate(keep func(Scope) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*closureEntry)
		if !keep(ent.key.Scope) {
			c.ll.Remove(el)
			delete(c.entries, ent.key)
			c.bytes -= ent.bytes
			c.evictions++
		}
	}
}

// Clear drops every entry (program swaps use it: no scope survives).
func (c *Closures) Clear() {
	if c == nil {
		return
	}
	c.Invalidate(func(Scope) bool { return false })
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
	// MaxBytes is the configured budget.
	MaxBytes int64
	// Hits, Misses, and Evictions are cumulative since construction.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats returns the cache's current counters (zero value for a nil cache).
func (c *Closures) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// EncodeStart renders a start vector as a ClosureKey.Start, four
// little-endian bytes per value: injective, so it also serves the
// Separable evaluator as a map key for start vectors.
func EncodeStart(t rel.Tuple) string {
	return string(AppendStart(make([]byte, 0, 4*len(t)), t))
}

// AppendStart appends EncodeStart(t)'s bytes to b, so a hot loop can look
// start vectors up as m[string(buf)] in a reused buffer without
// allocating.
func AppendStart(b []byte, t rel.Tuple) []byte {
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}
