package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"cqbound/internal/relation"
	"cqbound/internal/spill"
)

func frozenRel(rng *rand.Rand, name string, n, universe int) *relation.Relation {
	r := randomRel(rng, name, []string{"A", "B"}, n, universe)
	r.Freeze()
	return r
}

func extendOf(t *testing.T, base *relation.Relation, rng *rand.Rand, add, universe int) *relation.Relation {
	t.Helper()
	m := base.NewDedup()
	var delta []relation.Tuple
	for len(delta) < add {
		tp := relation.Tuple{
			relation.V(fmt.Sprintf("u%d", rng.Intn(universe))),
			relation.V(fmt.Sprintf("u%d", rng.Intn(universe))),
		}
		if _, dup := m.Row(tp); dup {
			continue
		}
		m.Put(tp, int32(base.Size()+len(delta)))
		delta = append(delta, tp)
	}
	next, err := base.Extend(delta)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestExtendPartitionsMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, p := range []int{2, 3, 5, 16} {
		base := frozenRel(rng, "R", 200, 60)
		Partition(base, 0, p) // memoize the base partitions
		next := extendOf(t, base, rng, 37, 80)
		if got := ExtendPartitions(base, next, nil); got != 1 {
			t.Fatalf("P=%d: extended %d partition memos, want 1", p, got)
		}

		derived := Partition(next, 0, p) // served from the installed memo
		flat := relation.New("flat", "A", "B")
		next.Each(func(tp relation.Tuple) bool {
			flat.MustInsert(tp.Clone()...)
			return true
		})
		want := Partition(flat, 0, p)
		for k := 0; k < p; k++ {
			if !relation.Equal(derived.Shard(k), want.Shard(k)) {
				t.Fatalf("P=%d: shard %d differs from rebuild: %d vs %d rows",
					p, k, derived.Shard(k).Size(), want.Shard(k).Size())
			}
		}
		// Base partitions are untouched — epoch readers still scan them.
		baseView := Partition(base, 0, p)
		total := 0
		for k := 0; k < p; k++ {
			total += baseView.Shard(k).Size()
		}
		if total != base.Size() {
			t.Fatalf("P=%d: base partitions now hold %d rows, want %d", p, total, base.Size())
		}
	}
}

func TestExtendPartitionsReusesUntouchedShards(t *testing.T) {
	base := relation.New("R", "A", "B")
	// All rows carry one key value → exactly one shard is ever touched.
	for i := 0; i < 20; i++ {
		base.Add("hot", fmt.Sprintf("v%d", i))
	}
	base.Freeze()
	p := 8
	baseView := Partition(base, 0, p)
	next, err := base.Extend([]relation.Tuple{{relation.V("hot"), relation.V("fresh")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ExtendPartitions(base, next, nil); got != 1 {
		t.Fatalf("extended %d memos, want 1", got)
	}
	derived := Partition(next, 0, p)
	hot := ShardOf(relation.V("hot"), p)
	reused := 0
	for k := 0; k < p; k++ {
		if k == hot {
			if derived.Shard(k) == baseView.Shard(k) {
				t.Fatal("touched shard was not replaced")
			}
			continue
		}
		if derived.Shard(k) == baseView.Shard(k) {
			reused++
		}
	}
	if reused != p-1 {
		t.Fatalf("reused %d untouched shards by pointer, want %d", reused, p-1)
	}
}

func TestExtendPartitionsGovernsFreshShards(t *testing.T) {
	g := spill.NewGovernor(1<<20, t.TempDir())
	defer g.Close()
	rng := rand.New(rand.NewSource(43))
	base := frozenRel(rng, "R", 150, 40)
	partition(base, 0, 4, g)
	before := spillGauge(g, "registered_buffers")
	next := extendOf(t, base, rng, 30, 60)
	ExtendPartitions(base, next, g)
	after := spillGauge(g, "registered_buffers")
	if after <= before {
		t.Fatalf("no fresh shard registered with the governor (%d → %d)", before, after)
	}
}
