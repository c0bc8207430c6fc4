package serve

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity, mutex-guarded LRU map. Values are shared
// pointers: callers must treat returned values as read-only.
type lruCache[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns a cache holding at most max entries; max <= 0 yields a
// disabled cache (every Get misses, every Add is dropped).
func newLRU[V any](max int) *lruCache[V] {
	return &lruCache[V]{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache[V]) Get(key string) (V, bool) {
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Add inserts or refreshes key, evicting the least recently used entry
// when over capacity.
func (c *lruCache[V]) Add(key string, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// GetOrAdd returns the value already cached under key, or inserts val
// and returns it. created reports an insertion — the atomicity the
// sub-search cache needs: two concurrent misses on one blueprint must
// share a single entry, not each build their own. On a disabled cache
// every call "creates" (returns val uncached), degrading gracefully to
// private, unshared entries.
func (c *lruCache[V]) GetOrAdd(key string, val V) (V, bool) {
	if c.max <= 0 {
		return val, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, false
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
	return val, true
}

// Len returns the current entry count.
func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
