package relation

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSortMergeMatchesHashJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R", []string{"a", "b"}, rng.Intn(30), 4)
		s := randomRelation(rng, "S", []string{"c", "d"}, rng.Intn(30), 4)
		pairs := [][2]int{{1, 0}}
		h, err := EquiJoin(r, s, pairs)
		if err != nil {
			return false
		}
		m, err := EquiJoinSortMerge(r, s, pairs)
		if err != nil {
			return false
		}
		return Equal(h, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortMergeMultiColumn(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "2")
	r.Add("1", "3")
	s := New("S", "c", "d")
	s.Add("1", "2")
	s.Add("1", "9")
	j, err := EquiJoinSortMerge(r, s, [][2]int{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 1 {
		t.Fatalf("size = %d, want 1 (only (1,2) matches both columns)", j.Size())
	}
}

func TestSortMergeRangeError(t *testing.T) {
	r := New("R", "a")
	s := New("S", "b")
	if _, err := EquiJoinSortMerge(r, s, [][2]int{{3, 0}}); err == nil {
		t.Fatal("accepted out-of-range position")
	}
}

func TestSortMergeEmptyInputs(t *testing.T) {
	r := New("R", "a")
	s := New("S", "b")
	s.Add("x")
	j, err := EquiJoinSortMerge(r, s, [][2]int{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 {
		t.Fatalf("size = %d", j.Size())
	}
}

func TestSortMergeKeepsDict(t *testing.T) {
	d := NewDict()
	d.Intern("padding") // so the engine's ids differ from the default dictionary's
	r := NewIn("R", d, "a", "b")
	r.Add("x", "k")
	s := NewIn("S", d, "c", "d")
	s.Add("k", "y")
	j, err := EquiJoinSortMerge(r, s, [][2]int{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if j.Dict() != d {
		t.Fatal("sort-merge join output does not resolve through its inputs' dictionary")
	}
	var got []string
	j.Each(func(tp Tuple) bool {
		got = tp.StringsIn(j.Dict())
		return true
	})
	if want := []string{"x", "k", "k", "y"}; !slices.Equal(got, want) {
		t.Fatalf("joined row = %v, want %v", got, want)
	}
}
