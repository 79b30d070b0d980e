package database

import (
	"testing"

	"cqbound/internal/cq"
	"cqbound/internal/relation"
)

func starRelation(n int) *relation.Relation {
	// Example 2.1: R(A,B) = {<1,1>, <1,2>, ..., <1,n>}.
	r := relation.New("R", "A", "B")
	for i := 1; i <= n; i++ {
		r.Add("c1", label(i))
	}
	return r
}

func label(i int) string {
	return string(rune('a' + i - 1))
}

func TestRMax(t *testing.T) {
	d := New()
	r := relation.New("R", "a")
	r.Add("1")
	r.Add("2")
	s := relation.New("S", "a")
	s.Add("1")
	big := relation.New("T", "a")
	for i := 0; i < 10; i++ {
		big.Add(label(i + 1))
	}
	d.MustAdd(r)
	d.MustAdd(s)
	d.MustAdd(big)

	q := cq.MustParse("Q(X) <- R(X), S(X).")
	got, err := d.RMax(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("RMax = %d, want 2 (T is not referenced)", got)
	}
}

func TestRMaxErrors(t *testing.T) {
	d := New()
	r := relation.New("R", "a", "b")
	d.MustAdd(r)
	if _, err := d.RMax(cq.MustParse("Q(X) <- Missing(X).")); err == nil {
		t.Fatal("RMax accepted missing relation")
	}
	if _, err := d.RMax(cq.MustParse("Q(X) <- R(X).")); err == nil {
		t.Fatal("RMax accepted arity mismatch")
	}
}

func TestDuplicateAdd(t *testing.T) {
	d := New()
	d.MustAdd(relation.New("R", "a"))
	if err := d.Add(relation.New("R", "b")); err == nil {
		t.Fatal("Add accepted duplicate name")
	}
}

func TestGaifmanStar(t *testing.T) {
	// Example 2.1's relation: Gaifman graph is a star, treewidth 1.
	d := New()
	d.MustAdd(starRelation(5))
	g := d.GaifmanGraph()
	if g.N() != 6 { // center c1 plus 5 leaves
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 5 {
		t.Fatalf("M = %d, want star edges only", g.M())
	}
	center, ok := g.VertexByLabel("c1")
	if !ok || g.Degree(center) != 5 {
		t.Fatal("center missing or wrong degree")
	}
}

func TestGaifmanIgnoresEqualValuesInTuple(t *testing.T) {
	d := New()
	r := relation.New("R", "a", "b")
	r.Add("x", "x")
	d.MustAdd(r)
	g := d.GaifmanGraph()
	if g.N() != 1 || g.M() != 0 {
		t.Fatalf("self-pair created edge: N=%d M=%d", g.N(), g.M())
	}
}

func TestGaifmanCliquePerTuple(t *testing.T) {
	d := New()
	r := relation.New("R", "a", "b", "c")
	r.Add("1", "2", "3")
	d.MustAdd(r)
	g := d.GaifmanGraph()
	if g.M() != 3 {
		t.Fatalf("tuple of arity 3 should induce a triangle, M=%d", g.M())
	}
}

func TestUniverse(t *testing.T) {
	d := New()
	r := relation.New("R", "a", "b")
	r.Add("b", "a")
	d.MustAdd(r)
	u := d.Universe()
	if len(u) != 2 || u[0] != relation.V("a") || u[1] != relation.V("b") {
		t.Fatalf("Universe = %v", u)
	}
}

func TestCheckFDs(t *testing.T) {
	d := New()
	r := relation.New("S", "a", "b")
	r.Add("1", "x")
	r.Add("1", "y") // violates S[1] -> S[2]
	d.MustAdd(r)
	q := cq.MustParse("Q(X,Y) <- S(X,Y).\nkey S[1].")
	if err := d.CheckFDs(q); err == nil {
		t.Fatal("CheckFDs missed a violation")
	}
	d2 := New()
	r2 := relation.New("S", "a", "b")
	r2.Add("1", "x")
	r2.Add("2", "y")
	d2.MustAdd(r2)
	if err := d2.CheckFDs(q); err != nil {
		t.Fatalf("CheckFDs false positive: %v", err)
	}
}

func TestGaifmanOfMultipleRelations(t *testing.T) {
	r := relation.New("R", "a", "b")
	r.Add("1", "2")
	s := relation.New("S", "a", "b")
	s.Add("2", "3")
	g := GaifmanOf(r, s)
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}
