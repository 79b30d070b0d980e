package serve

import (
	"strconv"
	"strings"
	"sync"

	"cqbound/internal/lru"
	"cqbound/internal/metrics"
	"cqbound/internal/metrics/counter"
)

// Cache is a concurrency-safe result cache keyed on (query text, database
// epoch). Results are immutable for a fixed epoch, so entries never go
// stale in place: a Commit that advances the live epoch simply makes new
// requests miss under the new key, while a reader pinned to an old Snapshot
// keeps hitting its own epoch's entries. Sweep reclaims entries for epochs
// nothing can read anymore.
type Cache[V any] struct {
	mu     sync.Mutex
	lru    *lru.Cache[V]
	counts *counter.Set
}

// cacheCounters is the family of the result cache's counters (registry
// names serve_cache_*).
var (
	cacheCounters = counter.NewFamily("serve_cache")
	hits          = cacheCounters.Counter("hits", "result-cache lookups that hit")
	misses        = cacheCounters.Counter("misses", "result-cache lookups that missed")
	invalidations = cacheCounters.Counter("invalidations",
		"entries dropped because their epoch became unreadable (not capacity evictions)")
)

// NewCache returns an empty cache holding at most capacity entries across
// all epochs. capacity must be positive.
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{lru: lru.New[V](capacity), counts: cacheCounters.NewSet()}
}

// cacheKey is the query text plus a suffix no parsable query can contain ("\x00" is not in the
// grammar), so distinct epochs never collide with each other or with a
// query that happens to end in digits.
func cacheKey(query string, epoch uint64) string {
	return query + "\x00@" + strconv.FormatUint(epoch, 10)
}

// Get returns the cached result for the query at the given epoch.
func (c *Cache[V]) Get(query string, epoch uint64) (V, bool) {
	c.mu.Lock()
	v, ok := c.lru.Get(cacheKey(query, epoch))
	c.mu.Unlock()
	if ok {
		c.counts.Add(hits, 1)
	} else {
		c.counts.Add(misses, 1)
	}
	return v, ok
}

// Put stores the result for the query at the given epoch.
func (c *Cache[V]) Put(query string, epoch uint64, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(cacheKey(query, epoch), v)
}

// Sweep drops every entry whose epoch fails the readable predicate —
// typically "is the live epoch or pinned by a held snapshot". It returns
// the number of entries dropped. The server runs it after each Commit and
// snapshot release; missing one sweep costs memory, never correctness,
// because unreadable epochs cannot be requested.
func (c *Cache[V]) Sweep(readable func(epoch uint64) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var stale []string
	c.lru.Backward(func(key string, _ V) bool {
		if i := strings.LastIndex(key, "\x00@"); i >= 0 {
			if e, err := strconv.ParseUint(key[i+2:], 10, 64); err == nil && !readable(e) {
				stale = append(stale, key)
			}
		}
		return true
	})
	for _, key := range stale {
		c.lru.Remove(key)
	}
	c.counts.Add(invalidations, int64(len(stale)))
	return len(stale)
}

// Register adds the cache's counters and its entry gauge to r.
func (c *Cache[V]) Register(r *metrics.Registry) {
	r.Counters(c.counts)
	r.Gauge("serve_cache_entries", "results cached now, across epochs", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.lru.Len())
	})
}
