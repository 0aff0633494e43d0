package segment

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sepdl/internal/rel"
)

// Cache is the byte-budgeted LRU of decoded data blocks, shared by every
// open Set of a codec: the disk-warm working set. Keys are (set id, block
// offset); a block is held as one flat, pointer-free value array and
// charged 4 B per value, equal to the block's on-disk payload.
// A budget <= 0 disables retention (every probe is a miss), which is what
// the disk-cold benchmark mode uses. Counters are atomic so Stats can be
// read without stalling readers.
type Cache struct {
	budget int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	bytes int64

	hits, misses, bytesRead atomic.Uint64
}

type cacheKey struct {
	set uint64
	off int64
}

type cacheEntry struct {
	key  cacheKey
	vals []rel.Value
}

func (e *cacheEntry) size() int64 { return int64(len(e.vals)) * rel.ValueBytes }

// NewCache returns a cache with the given byte budget.
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *Cache) get(set uint64, off int64) ([]rel.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cacheKey{set, off}]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).vals, true
}

func (c *Cache) put(set uint64, off int64, vals []rel.Value) {
	if c.budget <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{set, off}
	if _, ok := c.items[key]; ok {
		return // a racing reader decoded it first
	}
	ent := &cacheEntry{key: key, vals: vals}
	c.items[key] = c.ll.PushFront(ent)
	c.bytes += ent.size()
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil || back == c.ll.Front() {
			break // always retain the newest block, even over budget
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.size()
	}
}

// dropSet purges every block of a closed set.
func (c *Cache) dropSet(set uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.set == set {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.bytes -= e.size()
		}
		el = next
	}
}

func (c *Cache) noteRead(n uint64) { c.bytesRead.Add(n) }

// Stats returns cumulative (hits, misses, bytesRead).
func (c *Cache) Stats() (hits, misses, bytesRead uint64) {
	return c.hits.Load(), c.misses.Load(), c.bytesRead.Load()
}
