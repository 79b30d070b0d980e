package serve

import "testing"

func TestCacheHitPerEpoch(t *testing.T) {
	c := NewCache[string](8)
	if _, ok := c.Get("q", 1); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("q", 1, "one")
	c.Put("q", 2, "two")
	if v, ok := c.Get("q", 1); !ok || v != "one" {
		t.Fatalf("Get(q,1) = %q,%v", v, ok)
	}
	if v, ok := c.Get("q", 2); !ok || v != "two" {
		t.Fatalf("Get(q,2) = %q,%v", v, ok)
	}
	st := registered(c.Register)
	if st["serve_cache_hits"] != 2 || st["serve_cache_misses"] != 1 || st["serve_cache_entries"] != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheSweepDropsUnreadableEpochs(t *testing.T) {
	c := NewCache[int](8)
	c.Put("a", 1, 10)
	c.Put("b", 1, 11)
	c.Put("a", 2, 20)
	dropped := c.Sweep(func(e uint64) bool { return e == 2 })
	if dropped != 2 {
		t.Fatalf("Sweep dropped %d, want 2", dropped)
	}
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("epoch-1 entry survived sweep")
	}
	if v, ok := c.Get("a", 2); !ok || v != 20 {
		t.Fatal("live-epoch entry swept")
	}
	if n := registered(c.Register)["serve_cache_invalidations"]; n != 2 {
		t.Fatalf("invalidations = %d", n)
	}
}

func TestCacheKeyNoCollisions(t *testing.T) {
	c := NewCache[int](8)
	// A query ending in digits must not collide with another epoch.
	c.Put("q1", 2, 100)
	if _, ok := c.Get("q", 12); ok {
		t.Fatal("key collision between (q1,2) and (q,12)")
	}
}
