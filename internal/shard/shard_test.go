package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cqbound/internal/relation"
)

// randomRel builds a relation with n rows over a value universe of the
// given size (set semantics dedups collisions).
func randomRel(rng *rand.Rand, name string, attrs []string, n, universe int) *relation.Relation {
	r := relation.New(name, attrs...)
	for i := 0; i < n; i++ {
		vals := make([]string, len(attrs))
		for j := range vals {
			vals[j] = fmt.Sprintf("u%d", rng.Intn(universe))
		}
		r.Add(vals...)
	}
	return r
}

func TestPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomRel(rng, "R", []string{"a", "b"}, 500, 40)
	for _, p := range []int{1, 2, 3, 7, 16} {
		sh := Partition(r, 0, p)
		if len(sh) != p {
			t.Fatalf("%d shards, want %d", len(sh), p)
		}
		total := 0
		union := relation.New("U", "a", "b")
		for k, s := range sh {
			total += s.Size()
			for i := 0; i < s.Size(); i++ {
				if got := ShardOf(s.At(i, 0), len(sh)); got != k {
					t.Fatalf("p=%d: row with key %v in shard %d, ShardOf says %d", p, s.At(i, 0), k, got)
				}
				if _, err := union.Insert(s.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if total != r.Size() {
			t.Fatalf("p=%d: shards hold %d rows, base has %d (overlap or loss)", p, total, r.Size())
		}
		if !relation.Equal(union, r) {
			t.Fatalf("p=%d: union of shards differs from base", p)
		}
	}
}

func TestPartitionSingleShardIsBase(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(2)), "R", []string{"a", "b"}, 50, 10)
	sh := Partition(r, 1, 1)
	if len(sh) != 1 || sh[0] != r {
		t.Fatal("p=1 partition should be the base relation itself, uncopied")
	}
}

func TestPartitionMemoized(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(3)), "R", []string{"a", "b"}, 200, 20)
	s1 := Partition(r, 0, 4)
	s2 := Partition(r, 0, 4)
	for k := 0; k < 4; k++ {
		if s1[k] != s2[k] {
			t.Fatal("second partition rebuilt shards instead of reusing the memo")
		}
	}
	// A different key or P is a different partition.
	if s3 := Partition(r, 1, 4); s3[0] == s1[0] {
		t.Fatal("partitions on different keys shared a shard")
	}
}

func TestPartitionRenamedViewGetsOwnAttrs(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(4)), "R", []string{"a", "b"}, 100, 10)
	Partition(r, 0, 3) // memoize under r's names
	view, err := r.Rename("V", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	sh := Partition(view, 0, 3)
	for k, s := range sh {
		if s.Attrs[0] != "x" || s.Attrs[1] != "y" {
			t.Fatalf("shard %d attrs = %v, want the view's [x y]", k, s.Attrs)
		}
	}
	// Rows must still be the memoized ones (shared storage, not a rebuild).
	base := Partition(r, 0, 3)
	for k := 0; k < len(sh); k++ {
		if !relation.Equal(sh[k], base[k]) {
			t.Fatalf("renamed view's shard %d differs from base shard", k)
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	// Empty relation: every shard empty.
	empty := relation.New("E", "a", "b")
	sh := Partition(empty, 0, 4)
	for k := 0; k < len(sh); k++ {
		if sh[k].Size() != 0 {
			t.Fatal("shard of empty relation not empty")
		}
	}

	// All rows share one key value: one shard holds everything, the rest
	// are empty.
	skew := relation.New("S", "k", "v")
	for i := 0; i < 64; i++ {
		skew.Add("hot", fmt.Sprintf("v%d", i))
	}
	sh = Partition(skew, 0, 4)
	nonEmpty := 0
	for k := 0; k < len(sh); k++ {
		if sh[k].Size() > 0 {
			nonEmpty++
			if sh[k].Size() != 64 {
				t.Fatalf("skewed shard has %d rows, want 64", sh[k].Size())
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("single-valued key spread over %d shards", nonEmpty)
	}

	// More shards than distinct values: some shards must be empty, nothing
	// is lost.
	small := randomRel(rand.New(rand.NewSource(5)), "T", []string{"a", "b"}, 30, 3)
	sh = Partition(small, 0, 16)
	total := 0
	for k := 0; k < len(sh); k++ {
		total += sh[k].Size()
	}
	if total != small.Size() {
		t.Fatalf("p>distinct: shards hold %d rows, want %d", total, small.Size())
	}
}

func TestParallelPartitionMatchesSequential(t *testing.T) {
	// Force a multi-worker pool so the block-parallel build path runs even
	// on single-core machines.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := parallelPartitionMinRows + 1234
	col := make([]relation.Value, n)
	rng := rand.New(rand.NewSource(30))
	for i := range col {
		col[i] = relation.Value(rng.Intn(5000))
	}
	for _, p := range []int{2, 7, 16} {
		got := partitionRows(col, p)
		// Sequential reference.
		want := make([][]int32, p)
		for i, v := range col {
			k := ShardOf(v, p)
			want[k] = append(want[k], int32(i))
		}
		for k := 0; k < p; k++ {
			if len(got[k]) != len(want[k]) {
				t.Fatalf("p=%d shard %d: %d rows, want %d", p, k, len(got[k]), len(want[k]))
			}
			for i := range got[k] {
				if got[k][i] != want[k][i] {
					t.Fatalf("p=%d shard %d row %d: parallel build reordered rows", p, k, i)
				}
			}
		}
	}
}
