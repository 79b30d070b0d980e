package relation

// Tests for the bulk/batched primitives backing the shard subsystem:
// columnar Gather and Concat, the dedup-free ProjectView, and the index
// probe (MatchingRows / SemijoinOn).

import (
	"fmt"
	"math/rand"
	"testing"
)

func randRel(rng *rand.Rand, name string, attrs []string, n, universe int) *Relation {
	r := New(name, attrs...)
	for i := 0; i < n; i++ {
		vals := make([]string, len(attrs))
		for j := range vals {
			vals[j] = fmt.Sprintf("u%d", rng.Intn(universe))
		}
		r.Add(vals...)
	}
	return r
}

func TestGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randRel(rng, "R", []string{"a", "b", "c"}, 200, 30)
	rows := []int32{0, 5, 17, int32(r.Size() - 1)}
	g := r.Gather("G", rows)
	if g.Size() != len(rows) {
		t.Fatalf("gather size = %d, want %d", g.Size(), len(rows))
	}
	for k, i := range rows {
		for c := 0; c < r.Arity(); c++ {
			if g.At(k, c) != r.At(int(i), c) {
				t.Fatalf("gather row %d col %d = %v, want %v", k, c, g.At(k, c), r.At(int(i), c))
			}
		}
	}
	// Gathered relation is independent: inserting must not disturb r.
	before := r.Size()
	g.Add("x", "y", "z")
	if r.Size() != before {
		t.Fatal("insert into gather output mutated the source")
	}
	// Empty gather.
	if e := r.Gather("E", nil); e.Size() != 0 || e.Arity() != r.Arity() {
		t.Fatal("empty gather has wrong shape")
	}
}

func TestConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randRel(rng, "A", []string{"x", "y"}, 50, 100) // large universe: disjoint with high odds
	b := randRel(rng, "B", []string{"x", "y"}, 60, 100)
	// Make them certainly disjoint by tagging the first column.
	a2 := New("A2", "x", "y")
	a.Each(func(tp Tuple) bool { a2.Add("a_"+tp[0].String(), tp[1].String()); return true })
	b2 := New("B2", "x", "y")
	b.Each(func(tp Tuple) bool { b2.Add("b_"+tp[0].String(), tp[1].String()); return true })

	out, err := Concat("C", []string{"x", "y"}, a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != a2.Size()+b2.Size() {
		t.Fatalf("concat size = %d, want %d", out.Size(), a2.Size()+b2.Size())
	}
	u := New("U", "x", "y")
	a2.Each(func(tp Tuple) bool { u.Insert(tp); return true })
	b2.Each(func(tp Tuple) bool { u.Insert(tp); return true })
	if !Equal(out, u) {
		t.Fatal("concat of disjoint parts differs from their union")
	}
	// Arity mismatch errors.
	if _, err := Concat("C", []string{"x"}, a2); err == nil {
		t.Fatal("concat with wrong arity did not error")
	}
	// Zero parts: empty relation with the given schema.
	if e, err := Concat("E", []string{"x", "y"}); err != nil || e.Size() != 0 {
		t.Fatalf("empty concat: %v, %d rows", err, e.Size())
	}
}

func TestProjectView(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randRel(rng, "R", []string{"a", "b", "c"}, 100, 50)
	v, err := r.ProjectView("V", []string{"c", "a"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != r.Size() {
		t.Fatalf("view size = %d, want %d (no dedup)", v.Size(), r.Size())
	}
	for i := 0; i < r.Size(); i++ {
		if v.At(i, 0) != r.At(i, 2) || v.At(i, 1) != r.At(i, 0) {
			t.Fatalf("view row %d = (%v,%v), want (%v,%v)", i, v.At(i, 0), v.At(i, 1), r.At(i, 2), r.At(i, 0))
		}
	}
	// Copy-on-write: inserting into the view must not touch r.
	rSize := r.Size()
	v.Add("fresh", "fresh")
	if r.Size() != rSize {
		t.Fatal("insert into view mutated the base")
	}
	// Repeated positions are rejected (they could alias storage unsafely).
	if _, err := r.ProjectView("V", []string{"a", "a2"}, 0, 0); err == nil {
		t.Fatal("repeated position did not error")
	}
	if _, err := r.ProjectView("V", []string{"a"}, 7); err == nil {
		t.Fatal("out-of-range position did not error")
	}
}

func TestMatchingRowsAgainstRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randRel(rng, "R", []string{"a", "b"}, 2000, 60)
	s := randRel(rng, "S", []string{"b", "c"}, 300, 60)
	rCols, sCols := []int{1}, []int{0}
	got := s.Index(sCols...).MatchingRows(r, rCols, nil)
	// The reference scans every row of s for each row of r.
	var want []int32
	for i := 0; i < r.Size(); i++ {
		for j := 0; j < s.Size(); j++ {
			if r.At(i, rCols[0]) == s.At(j, sCols[0]) {
				want = append(want, int32(i))
				break
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("MatchingRows found %d rows, the scan found %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: MatchingRows %d, the scan %d", i, got[i], want[i])
		}
	}
}

func TestSemijoinOn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randRel(rng, "R", []string{"a", "b"}, 800, 40)
	s := randRel(rng, "S", []string{"b", "c"}, 150, 40)
	byName, err := Semijoin(r, s)
	if err != nil {
		t.Fatal(err)
	}
	byPos, err := SemijoinOn(r, s, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(byName, byPos) {
		t.Fatalf("SemijoinOn = %d rows, Semijoin = %d", byPos.Size(), byName.Size())
	}
	// Column count mismatch and range errors.
	if _, err := SemijoinOn(r, s, []int{1}, []int{0, 1}); err == nil {
		t.Fatal("mismatched column lists did not error")
	}
	if _, err := SemijoinOn(r, s, []int{9}, []int{0}); err == nil {
		t.Fatal("out-of-range column did not error")
	}
	// Empty column lists degrade like the no-shared-attributes case.
	out, err := SemijoinOn(r, s, nil, nil)
	if err != nil || out != r {
		t.Fatal("empty-column semijoin against nonempty s should return r itself")
	}
	empty := New("E", "x")
	out, err = SemijoinOn(r, empty, nil, nil)
	if err != nil || out.Size() != 0 {
		t.Fatal("empty-column semijoin against empty s should be empty")
	}
}
