package plan

import (
	"context"
	"math/rand"
	"testing"

	"cqbound/internal/core"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

func TestChooseStrategyByStructure(t *testing.T) {
	cases := []struct {
		name string
		text string
		want Strategy
	}{
		{"star", "Q(X,Y,Z,W) <- F(X,Y), F(X,Z), F(X,W).", StrategyYannakakis},
		{"path", "Q(A,D) <- R(A,B), S(B,C), T(C,D).", StrategyYannakakis},
		{"single atom", "Q(X,Y) <- R(X,Y).", StrategyYannakakis},
		{"triangle", "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).", StrategyProjectEarly},
		{"keyed 4-cycle", "Q(A,B,C,D) <- F(A,B), G(B,C), H(C,D), K(D,A).\nkey F[1]. key G[1]. key H[1]. key K[1].", StrategyProjectEarly},
		{"4-cycle", "Q(A,B,C,D) <- F(A,B), F(B,C), F(C,D), F(D,A).", StrategyGenericJoin},
		{"cyclic with compound FDs", "Q(X,Y,Z) <- R(X,Y,U), S(Y,Z,U), T(Z,X,U).\nfd R[1],R[2] -> R[3].", StrategyGenericJoin},
	}
	for _, c := range cases {
		p, err := Choose(cq.MustParse(c.text))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Strategy != c.want {
			t.Errorf("%s: strategy = %v, want %v\nrationale: %s", c.name, p.Strategy, c.want, p.Rationale)
		}
		if p.Rationale == "" {
			t.Errorf("%s: empty rationale", c.name)
		}
	}
}

func TestChoosePlanFacts(t *testing.T) {
	// The triangle plan must carry its structural justification.
	p, err := Choose(cq.MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z)."))
	if err != nil {
		t.Fatal(err)
	}
	if p.Acyclic {
		t.Error("triangle reported acyclic")
	}
	if p.ColorNumber == nil || p.ColorNumber.RatString() != "3/2" {
		t.Errorf("triangle C = %v, want 3/2", p.ColorNumber)
	}
	if p.RhoStar == nil || p.RhoStar.RatString() != "3/2" {
		t.Errorf("triangle rho* = %v, want 3/2", p.RhoStar)
	}
	// Compound dependencies must not trigger the entropy LP: the plan keeps
	// a nil color number.
	p, err = Choose(cq.MustParse("Q(X,Y,Z) <- R(X,Y,U), S(Y,Z,U), T(Z,X,U).\nfd R[1],R[2] -> R[3]."))
	if err != nil {
		t.Fatal(err)
	}
	if p.ColorNumber != nil {
		t.Errorf("compound-FD plan priced the query: C = %v", p.ColorNumber)
	}
	if p.Class != core.CompoundFDs {
		t.Errorf("class = %v, want compound", p.Class)
	}
}

func TestOrderAtomsMostSelectiveFirst(t *testing.T) {
	// R is huge, S is tiny: the greedy order must start with S and then
	// join R through the shared variable rather than in body order.
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z), T(Z,W).")
	db := database.New()
	r := relation.New("R", "a", "b")
	for i := 0; i < 50; i++ {
		r.Add(string(rune('a'+i%26)), string(rune('A'+i%26)))
	}
	s := relation.New("S", "a", "b")
	s.Add("A", "z")
	tt := relation.New("T", "a", "b")
	tt.Add("z", "w")
	tt.Add("z", "v")
	db.MustAdd(r)
	db.MustAdd(s)
	db.MustAdd(tt)

	order := OrderAtoms(q, db)
	if len(order) != 3 || order[0] != 1 {
		t.Fatalf("order = %v, want S (index 1) first", order)
	}
	// Every order must be a permutation usable by the evaluator.
	out, _, err := eval.JoinProjectExec(context.Background(), q, db, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := eval.JoinProject(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(out, base) {
		t.Errorf("ordered result differs from body order")
	}
}

func TestOrderAtomsFallsBack(t *testing.T) {
	q := cq.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	if got := OrderAtoms(q, nil); got != nil {
		t.Errorf("nil db: order = %v, want nil", got)
	}
	if got := OrderAtoms(q, database.New()); got != nil {
		t.Errorf("missing relations: order = %v, want nil", got)
	}
}

// TestStrategiesAgreeOnRandomDatabases is the planner's correctness
// cross-check: on seeded random queries and FD-satisfying random databases,
// the planned execution, every fixed strategy, and the naive baseline
// produce identical outputs.
func TestStrategiesAgreeOnRandomDatabases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qp := datagen.QueryParams{
		MaxVars:            5,
		MaxAtoms:           4,
		MaxArity:           3,
		HeadFraction:       0.7,
		RepeatRelationProb: 0.3,
		SimpleFDProb:       0.15,
		CompoundFDProb:     0.2,
	}
	for i := 0; i < 60; i++ {
		q := datagen.RandomQuery(rng, qp)
		db := datagen.RandomDatabase(rng, q, datagen.DBParams{Tuples: 12, Universe: 6})

		want, _, err := eval.Naive(q, db)
		if err != nil {
			t.Fatalf("query %d (%s): naive: %v", i, q, err)
		}
		p, err := ChooseForDB(q, db)
		if err != nil {
			t.Fatalf("query %d (%s): choose: %v", i, q, err)
		}
		got, _, err := ExecuteOpts(context.Background(), p, q, db, nil)
		if err != nil {
			t.Fatalf("query %d (%s): planned %v: %v", i, q, p.Strategy, err)
		}
		if !relation.Equal(want, got) {
			t.Errorf("query %d (%s): planned %v disagrees with naive: %d vs %d tuples",
				i, q, p.Strategy, got.Size(), want.Size())
		}
		jp, _, err := eval.JoinProjectExec(context.Background(), q, db, OrderAtoms(q, db), nil)
		if err != nil {
			t.Fatalf("query %d: join-project: %v", i, err)
		}
		gj, _, err := eval.GenericJoin(q, db)
		if err != nil {
			t.Fatalf("query %d: generic join: %v", i, err)
		}
		if !relation.Equal(want, jp) || !relation.Equal(want, gj) {
			t.Errorf("query %d (%s): fixed strategies disagree: naive %d, jp %d, gj %d",
				i, q, want.Size(), jp.Size(), gj.Size())
		}
		if eval.IsAcyclic(q) {
			ya, _, err := eval.Yannakakis(q, db)
			if err != nil {
				t.Fatalf("query %d: yannakakis: %v", i, err)
			}
			if !relation.Equal(want, ya) {
				t.Errorf("query %d (%s): yannakakis disagrees: %d vs %d tuples",
					i, q, ya.Size(), want.Size())
			}
		}
	}
}
