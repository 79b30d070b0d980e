package cqbound

import (
	"context"
	"math/big"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	q, err := Parse("S(X,Y,Z) <- R(X,Y), R(X,Z), R(Y,Z).")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.ColorNumber.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("C = %v", a.ColorNumber)
	}
	c, col, err := ColorNumber(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cmp(a.ColorNumber) != 0 {
		t.Fatalf("ColorNumber = %v", c)
	}
	if err := ValidateColoring(q, col); err != nil {
		t.Fatal(err)
	}
	n, err := ColorNumberOf(q, col)
	if err != nil || n.Cmp(c) != 0 {
		t.Fatalf("ColorNumberOf = %v (%v)", n, err)
	}
	rho, err := FractionalEdgeCover(q)
	if err != nil || rho.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("rho* = %v (%v)", rho, err)
	}
	s, err := SizeBoundExponent(q)
	if err != nil || s.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("s(Q) = %v (%v)", s, err)
	}
	if !SizeIncreasePossible(q) {
		t.Fatal("triangle grows")
	}
}

func TestPublicAPIEvaluation(t *testing.T) {
	q := MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := NewDatabase()
	r := NewRelation("R", "a", "b")
	r.Add("x", "y")
	s := NewRelation("S", "a", "b")
	s.Add("y", "z")
	db.MustAdd(r)
	db.MustAdd(s)
	eng := NewEngine()
	ctx := context.Background()
	out, _, err := eng.Evaluate(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 {
		t.Fatalf("|Q(D)| = %d", out.Size())
	}
	gj, _, err := eng.EvaluateStrategy(ctx, StrategyGenericJoin, q, db)
	if err != nil || gj.Size() != 1 {
		t.Fatalf("generic join: %v %v", gj, err)
	}
}

func TestPublicAPIWitnessAndChase(t *testing.T) {
	q := MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).\nkey S[1].")
	ch := Chase(q)
	if len(ch.Body) != 2 {
		t.Fatalf("chase body = %v", ch.Body)
	}
	_, col, err := ColorNumber(q)
	if err != nil {
		t.Fatal(err)
	}
	db, err := WitnessDatabase(ch, col, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := NewEngine().Evaluate(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	rmax, err := db.RMax(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() > rmax {
		t.Fatalf("keyed chain must not grow: %d > %d", out.Size(), rmax)
	}
}

func TestPublicAPITreewidth(t *testing.T) {
	q := MustParse("R2(X,Y,Z) <- R(X,Y), R(X,Z).")
	col, ok := TwoColoringExists(q)
	if !ok || col == nil {
		t.Fatal("expected blowup coloring")
	}
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Treewidth != TWUnbounded {
		t.Fatalf("verdict = %v", a.Treewidth)
	}
	db := NewDatabase()
	r := NewRelation("R", "a", "b")
	r.Add("1", "2")
	r.Add("2", "3")
	db.MustAdd(r)
	g := GaifmanGraph(db)
	lo, hi, exact, err := Treewidth(g)
	if err != nil {
		t.Fatal(err)
	}
	if !exact || lo != 1 || hi != 1 {
		t.Fatalf("treewidth = [%d,%d] exact=%v", lo, hi, exact)
	}
}
