package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

func tup(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = V(v)
	}
	return t
}

func TestInsertDedup(t *testing.T) {
	r := New("R", "a", "b")
	ok, err := r.Insert(tup("1", "2"))
	if err != nil || !ok {
		t.Fatalf("first insert: %v %v", ok, err)
	}
	ok, err = r.Insert(tup("1", "2"))
	if err != nil || ok {
		t.Fatalf("duplicate insert: %v %v", ok, err)
	}
	if r.Size() != 1 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestInsertArityMismatch(t *testing.T) {
	r := New("R", "a", "b")
	if _, err := r.Insert(tup("1")); err == nil {
		t.Fatal("accepted wrong arity")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// ("ab","c") and ("a","bc") must not collide.
	a := tup("ab", "c")
	b := tup("a", "bc")
	if a.Key() == b.Key() {
		t.Fatal("tuple keys collide")
	}
}

func TestProject(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "x")
	r.Add("2", "x")
	p, err := r.Project("b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1 {
		t.Fatalf("project dedup failed: %d tuples", p.Size())
	}
	if _, err := r.Project("zzz"); err == nil {
		t.Fatal("accepted unknown attribute")
	}
}

func TestProjectRepeatedColumn(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "x")
	p, err := r.ProjectIdx(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.Attrs[0] == p.Attrs[1] {
		t.Fatalf("repeated projection attrs = %v", p.Attrs)
	}
}

func TestEquiJoin(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "x")
	r.Add("2", "y")
	s := New("S", "c", "d")
	s.Add("x", "10")
	s.Add("x", "11")
	s.Add("z", "12")
	j, err := EquiJoin(r, s, [][2]int{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 2 {
		t.Fatalf("join size = %d, want 2\n%s", j.Size(), j)
	}
	if j.Arity() != 4 {
		t.Fatalf("join arity = %d", j.Arity())
	}
}

func TestEquiJoinSwapSides(t *testing.T) {
	// Result must not depend on which side is hashed.
	r := New("R", "a", "b")
	s := New("S", "c", "d")
	for i := 0; i < 10; i++ {
		r.Add(fmt.Sprint(i), fmt.Sprint(i%3))
	}
	s.Add("0", "u")
	s.Add("1", "v")
	j1, err := EquiJoin(r, s, [][2]int{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Force the other hashing order by growing s beyond r.
	for i := 0; i < 20; i++ {
		s.Add(fmt.Sprintf("zz%d", i), "w")
	}
	j2, err := EquiJoin(r, s, [][2]int{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if j1.Size() != j2.Size() {
		t.Fatalf("join sizes differ: %d vs %d", j1.Size(), j2.Size())
	}
	for _, tu := range j1.Tuples() {
		if !j2.Has(tu) {
			t.Fatalf("tuple %v missing after side swap", tu)
		}
	}
}

func TestNaturalJoin(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "x")
	r.Add("2", "y")
	s := New("S", "b", "c")
	s.Add("x", "10")
	s.Add("y", "11")
	s.Add("y", "12")
	j, err := NaturalJoin(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 3 || j.Arity() != 3 {
		t.Fatalf("natural join = %s", j)
	}
	if j.AttrIndex("a") != 0 || j.AttrIndex("b") != 1 || j.AttrIndex("c") != 2 {
		t.Fatalf("attrs = %v", j.Attrs)
	}
}

func TestNaturalJoinNoSharedAttrsIsProduct(t *testing.T) {
	r := New("R", "a")
	r.Add("1")
	r.Add("2")
	s := New("S", "b")
	s.Add("x")
	j, err := NaturalJoin(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 2 || j.Arity() != 2 {
		t.Fatalf("product fallback = %s", j)
	}
}

func TestProduct(t *testing.T) {
	r := New("R", "a")
	r.Add("1")
	s := New("S", "a")
	s.Add("1")
	s.Add("2")
	p := Product(r, s)
	if p.Size() != 2 || p.Arity() != 2 {
		t.Fatalf("product = %s", p)
	}
}

func TestCheckFDAndKey(t *testing.T) {
	r := New("R", "a", "b", "c")
	r.Add("1", "x", "p")
	r.Add("2", "x", "q")
	r.Add("1", "x", "p")
	if !r.CheckFD([]int{0}, 1) {
		t.Fatal("FD a->b should hold")
	}
	if r.CheckFD([]int{1}, 0) {
		t.Fatal("FD b->a should fail (x maps to 1 and 2)")
	}
	if !r.CheckKey([]int{0}) {
		t.Fatal("a should be a key")
	}
	if r.CheckKey([]int{1}) {
		t.Fatal("b should not be a key")
	}
	if !r.CheckFD([]int{1, 2}, 0) {
		t.Fatal("compound FD b,c->a should hold")
	}
}

func TestEqual(t *testing.T) {
	r := New("R", "a")
	r.Add("1")
	s := New("S", "zz")
	s.Add("1")
	if !Equal(r, s) {
		t.Fatal("Equal ignores names and should match")
	}
	s.Add("2")
	if Equal(r, s) {
		t.Fatal("Equal should detect size difference")
	}
}

func TestRename(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "2")
	s, err := r.Rename("S", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "S" || s.AttrIndex("x") != 0 {
		t.Fatalf("rename = %s", s)
	}
	if _, err := r.Rename("S", "only_one"); err == nil {
		t.Fatal("rename accepted wrong attr count")
	}
}

// TestJoinCommutes checks |R ⋈ S| = |S ⋈ R| on random instances.
func TestJoinCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		r := New("R", "a", "b")
		s := New("S", "b", "c")
		for i := 0; i < rng.Intn(30); i++ {
			r.Add(fmt.Sprint(rng.Intn(5)), fmt.Sprint(rng.Intn(5)))
		}
		for i := 0; i < rng.Intn(30); i++ {
			s.Add(fmt.Sprint(rng.Intn(5)), fmt.Sprint(rng.Intn(5)))
		}
		j1, err := NaturalJoin(r, s)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := NaturalJoin(s, r)
		if err != nil {
			t.Fatal(err)
		}
		if j1.Size() != j2.Size() {
			t.Fatalf("trial %d: |R⋈S| = %d but |S⋈R| = %d", trial, j1.Size(), j2.Size())
		}
	}
}

func TestProductSizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		r := New("R", "a")
		s := New("S", "b")
		for i := 0; i < rng.Intn(10); i++ {
			r.Add(fmt.Sprint(i))
		}
		for i := 0; i < rng.Intn(10); i++ {
			s.Add(fmt.Sprint(i))
		}
		if got := Product(r, s).Size(); got != r.Size()*s.Size() {
			t.Fatalf("|R×S| = %d, want %d", got, r.Size()*s.Size())
		}
	}
}

func TestDuplicateAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted duplicate attribute names")
		}
	}()
	New("R", "a", "a")
}

func TestNaturalJoinSchema(t *testing.T) {
	attrs, keep := NaturalJoinSchema([]string{"a", "b"}, []string{"b", "c"}, []int{0})
	wantAttrs := []string{"a", "b", "c"}
	wantKeep := []int{0, 1, 3}
	if fmt.Sprint(attrs) != fmt.Sprint(wantAttrs) || fmt.Sprint(keep) != fmt.Sprint(wantKeep) {
		t.Fatalf("schema = %v %v, want %v %v", attrs, keep, wantAttrs, wantKeep)
	}
	// All of s's columns joined: only r's survive.
	attrs, keep = NaturalJoinSchema([]string{"a", "b"}, []string{"a", "b"}, []int{0, 1})
	if len(attrs) != 2 || len(keep) != 2 {
		t.Fatalf("full-overlap schema = %v %v", attrs, keep)
	}
}

// TestInsertAllocsAmortized pins the row table's dedup to amortized
// allocation: inserting a row costs no heap key, only the doubling of the
// columns and of the table.
func TestInsertAllocsAmortized(t *testing.T) {
	const rows = 64 << 10
	tp := make(Tuple, 2)
	allocs := testing.AllocsPerRun(1, func() {
		r := New("R", "A", "B")
		for i := 0; i < rows; i++ {
			tp[0], tp[1] = Value(i), Value(i%7)
			if _, err := r.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		if r.Size() != rows {
			t.Fatalf("%d rows, want %d", r.Size(), rows)
		}
	})
	if per := allocs / rows; per >= 0.05 {
		t.Fatalf("%.3f allocations per inserted row, want < 0.05", per)
	}
}
