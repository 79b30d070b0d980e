package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
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

// nestedLoopJoin is HashJoin's reference, sharing none of its hashing:
// every pair of rows equal on the key columns, concatenated.
func nestedLoopJoin(r, s *Relation, pairs [][2]int) *Relation {
	out := New("want", concatAttrs(r, s)...)
	r.Each(func(a Tuple) bool {
		s.Each(func(b Tuple) bool {
			for _, p := range pairs {
				if a[p[0]] != b[p[1]] {
					return true
				}
			}
			out.MustInsert(append(a.Clone(), b...)...)
			return true
		})
		return true
	})
	return out
}

// hashJoinCheck joins r and s with HashJoin and fails t unless the result
// equals the nested-loop reference and resolves through its inputs'
// dictionary.
func hashJoinCheck(t *testing.T, r, s *Relation, pairs [][2]int) *Relation {
	t.Helper()
	h, err := HashJoin(r, s, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if want := nestedLoopJoin(r, s, pairs); !Equal(h, want) {
		t.Fatalf("%v: hash join %d tuples, nested loop %d", pairs, h.Size(), want.Size())
	}
	if h.Dict() != r.Dict() {
		t.Fatal("hash join output does not resolve through its inputs' dictionary")
	}
	return h
}

// TestHashJoinMatchesSortMerge cross-checks HashJoin with the nested-loop
// reference on a skewed instance.
func TestHashJoinMatchesSortMerge(t *testing.T) {
	r := New("R", "a", "b")
	s := New("S", "c", "d")
	for i := 0; i < 200; i++ {
		r.Add(fmt.Sprintf("r%d", i), fmt.Sprintf("k%d", i%7))
		s.Add(fmt.Sprintf("k%d", i%11), fmt.Sprintf("s%d", i))
	}
	hashJoinCheck(t, r, s, [][2]int{{1, 0}})
}

// TestSortMergeMatchesHashJoin runs HashJoin's cross-check (through
// EquiJoin) on random relations, either side empty or the smaller, on one
// and two key columns.
func TestSortMergeMatchesHashJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, "R", []string{"a", "b"}, rng.Intn(30), 4)
		s := randomRelation(rng, "S", []string{"c", "d"}, rng.Intn(30), 4)
		for _, pairs := range [][][2]int{{{1, 0}}, {{0, 0}, {1, 1}}} {
			h, err := EquiJoin(r, s, pairs)
			if err != nil || !Equal(h, nestedLoopJoin(r, s, pairs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSortMergeMultiColumn pins HashJoin on a two-column key: a row must
// match on both columns.
func TestSortMergeMultiColumn(t *testing.T) {
	r := New("R", "a", "b")
	r.Add("1", "2")
	r.Add("1", "3")
	s := New("S", "c", "d")
	s.Add("1", "2")
	s.Add("1", "9")
	if j := hashJoinCheck(t, r, s, [][2]int{{0, 0}, {1, 1}}); j.Size() != 1 {
		t.Fatalf("size = %d, want 1 (only (1,2) matches both columns)", j.Size())
	}
}

// TestSortMergeRangeError: HashJoin rejects a key position past either
// side's arity instead of reading it.
func TestSortMergeRangeError(t *testing.T) {
	r := New("R", "a")
	s := New("S", "b")
	for _, pairs := range [][][2]int{{{3, 0}}, {{0, 3}}, {{-1, 0}}} {
		if _, err := HashJoin(r, s, pairs); err == nil {
			t.Fatalf("accepted out-of-range positions %v", pairs)
		}
	}
}

// TestSortMergeEmptyInputs: in HashJoin an empty side joins to nothing.
func TestSortMergeEmptyInputs(t *testing.T) {
	r := New("R", "a")
	s := New("S", "b")
	s.Add("x")
	if j := hashJoinCheck(t, r, s, [][2]int{{0, 0}}); j.Size() != 0 {
		t.Fatalf("empty left: size = %d", j.Size())
	}
	if j := hashJoinCheck(t, s, r, [][2]int{{0, 0}}); j.Size() != 0 {
		t.Fatalf("empty right: size = %d", j.Size())
	}
}

// TestSortMergeKeepsDict: over a private dictionary HashJoin's rows
// resolve to their inputs' strings.
func TestSortMergeKeepsDict(t *testing.T) {
	d := NewDict()
	d.Intern("padding") // so d's ids differ from the default dictionary's
	r := NewIn("R", d, "a", "b")
	r.Add("x", "k")
	s := NewIn("S", d, "c", "d")
	s.Add("k", "y")
	j := hashJoinCheck(t, r, s, [][2]int{{1, 0}})
	var got []string
	j.Each(func(tp Tuple) bool {
		got = tp.StringsIn(j.Dict())
		return true
	})
	if want := []string{"x", "k", "k", "y"}; !slices.Equal(got, want) {
		t.Fatalf("joined row = %v, want %v", got, want)
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
