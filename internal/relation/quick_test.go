package relation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomRelation(rng *rand.Rand, name string, attrs []string, rows, domain int) *Relation {
	r := New(name, attrs...)
	for i := 0; i < rows; i++ {
		t := make(Tuple, len(attrs))
		for j := range t {
			t[j] = V(fmt.Sprint(rng.Intn(domain)))
		}
		r.MustInsert(t...)
	}
	return r
}

// TestQuickProjectIdempotent: projecting twice onto the same columns equals
// projecting once.
func TestQuickProjectIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R", []string{"a", "b", "c"}, rng.Intn(30), 4)
		p1, err := r.Project("a", "c")
		if err != nil {
			return false
		}
		p2, err := p1.Project("a", "c")
		if err != nil {
			return false
		}
		return Equal(p1, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickJoinBounds: |R ⋈ S| ≤ |R × S| and the join is contained in the
// product (as a filter).
func TestQuickJoinBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R", []string{"a", "b"}, rng.Intn(20), 3)
		s := randomRelation(rng, "S", []string{"c", "d"}, rng.Intn(20), 3)
		j, err := EquiJoin(r, s, [][2]int{{1, 0}})
		if err != nil {
			return false
		}
		if j.Size() > r.Size()*s.Size() {
			return false
		}
		for _, tup := range j.Tuples() {
			if tup[1] != tup[2] {
				return false // join condition violated
			}
			if !r.Has(Tuple{tup[0], tup[1]}) || !s.Has(Tuple{tup[2], tup[3]}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTupleKeyInjective: distinct tuples have distinct keys.
func TestQuickTupleKeyInjective(t *testing.T) {
	f := func(a1, a2, b1, b2 string) bool {
		t1 := Tuple{V(a1), V(a2)}
		t2 := Tuple{V(b1), V(b2)}
		if a1 == b1 && a2 == b2 {
			return t1.Key() == t2.Key()
		}
		return t1.Key() != t2.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCheckKeyMonotone: adding columns to a key set keeps it a key.
func TestQuickCheckKeyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R", []string{"a", "b", "c"}, 1+rng.Intn(25), 3)
		if r.CheckKey([]int{0}) && !r.CheckKey([]int{0, 1}) {
			return false
		}
		if r.CheckKey([]int{1}) && !r.CheckKey([]int{1, 2}) {
			return false
		}
		// The full column set is always a key (set semantics).
		return r.CheckKey([]int{0, 1, 2})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
