// Package lru is a fixed-capacity string-keyed least-recently-used cache —
// the eviction policy behind the Engine's query cache, the server's result
// cache and the spill governor's residency list. It is intentionally
// minimal: no TTLs, no weights, no locking (callers hold their own mutex),
// just the recency list that replaces the seed's evict-an-arbitrary-entry
// behavior.
package lru

import "container/list"

// Cache maps string keys to values, evicting the least recently used entry
// once capacity is exceeded. Get and Put both count as uses. Not safe for
// concurrent use.
type Cache[V any] struct {
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type entry[V any] struct {
	key string
	v   V
}

// New returns an empty cache holding at most capacity entries. capacity
// must be positive.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the value under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).v, true
	}
	var zero V
	return zero, false
}

// Put stores the value under key, marking it most recently used. At
// capacity, the least recently used entry is evicted.
func (c *Cache[V]) Put(key string, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).v = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, v: v})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
}

// Remove deletes the entry under key, reporting whether it was present.
// Removal touches no other entry's recency — it is the explicit-invalidation
// hook (the spill governor unregisters discarded buffers through it).
func (c *Cache[V]) Remove(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	return true
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.ll.Len() }

// Backward walks entries least recently used first, stopping when f
// returns false. It does not touch recency — the eviction-scan hook: the
// spill governor collects cold candidates from the back without
// materializing every key. f must not mutate the cache.
func (c *Cache[V]) Backward(f func(key string, v V) bool) {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[V])
		if !f(e.key, e.v) {
			return
		}
	}
}
