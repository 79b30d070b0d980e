package lru

import (
	"slices"
	"testing"
)

// has reports whether key is cached, without touching recency.
func has(c *Cache[int], key string) bool {
	found := false
	c.Backward(func(k string, _ int) bool {
		found = k == key
		return !found
	})
	return found
}

func TestPutGet(t *testing.T) {
	c := New[int](4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) after update = %d, want 10", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch a, making b the least recently used.
	c.Get("a")
	c.Put("d", 4)
	if has(c, "b") {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !has(c, k) {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestPutRefreshesRecency(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 3) // re-Put promotes a; b becomes LRU
	c.Put("c", 4)
	if has(c, "b") {
		t.Fatal("b should have been evicted")
	}
	if !has(c, "a") {
		t.Fatal("a should have survived (refreshed by Put)")
	}
}

// TestBackwardWalksLeastRecentFirst pins the eviction-scan order and that
// the walk promotes nothing: the entry it visits first is still the one
// the next Put evicts.
func TestBackwardWalksLeastRecentFirst(t *testing.T) {
	c := New[int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a")
	var keys []string
	c.Backward(func(k string, _ int) bool {
		keys = append(keys, k)
		return true
	})
	if want := []string{"b", "c", "a"}; !slices.Equal(keys, want) {
		t.Fatalf("Backward visited %v, want %v", keys, want)
	}
	c.Put("d", 4)
	if has(c, "b") {
		t.Fatal("b should have been evicted despite the walk")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestRemove(t *testing.T) {
	c := New[int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	if !c.Remove("a") {
		t.Fatal("Remove(a) reported absent")
	}
	if c.Remove("a") {
		t.Fatal("second Remove(a) reported present")
	}
	if has(c, "a") {
		t.Fatal("a survives Remove")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// The freed slot is usable again without evicting b.
	c.Put("c", 3)
	c.Put("d", 4)
	if !has(c, "b") {
		t.Fatal("b evicted although Remove freed a slot")
	}
}
