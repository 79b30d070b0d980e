// Command optimizer demonstrates query admission control (the Section 1
// motivation): a multi-user DBMS wants
// to reject queries whose worst-case output could be disruptive before
// running them. Treating every join as a cross product gives the trivial
// r^k bound; the color number gives the exact worst-case exponent, letting
// far more queries through. The example also compares evaluation strategies on an
// admitted query.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"cqbound"
)

func main() {
	ctx := context.Background()
	eng := cqbound.NewEngine()
	const (
		relationSize = 1_000_000
		budget       = 1e12 // tuples the system tolerates
	)
	queries := []struct {
		name string
		text string
	}{
		{"lookup join (keyed)", "Q(O,C,N) <- Orders(O,C), Customer(C,N).\nkey Customer[1]."},
		{"triangle listing", "Q(X,Y,Z) <- F(X,Y), F(Y,Z), F(X,Z)."},
		{"4-cycle listing", "Q(A,B,C,D) <- F(A,B), F(B,C), F(C,D), F(D,A)."},
		{"unconstrained star", "Q(X,Y,Z,W) <- F(X,Y), F(X,Z), F(X,W)."},
	}
	fmt.Printf("admission control at |R| = %.0e, budget %.0e output tuples\n\n",
		float64(relationSize), budget)
	for _, e := range queries {
		q := cqbound.MustParse(e.text)
		a, err := eng.Analyze(q)
		if err != nil {
			log.Fatal(err)
		}
		// Trivial bound: r^k with k the output arity.
		trivial := math.Pow(relationSize, float64(len(q.Head.Vars)))
		tight, err := a.SizeBound(relationSize)
		if err != nil {
			log.Fatal(err)
		}
		decision := "ADMIT"
		if tight > budget {
			decision = "REJECT"
		}
		fmt.Printf("%-22s C=%-4s trivial r^k = %8.1e   tight r^C = %8.1e   -> %s\n",
			e.name, a.ColorNumber.RatString(), trivial, tight, decision)
	}

	// For an admitted query, let the engine pick the plan and explain it.
	fmt.Println("\nplanned evaluation on an adversarial triangle instance:")
	q := cqbound.MustParse("Q(X,Y,Z) <- F1(X,Y), F2(Y,Z), F3(X,Z).")
	p, err := eng.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p)
	_, col, err := cqbound.ColorNumber(q)
	if err != nil {
		log.Fatal(err)
	}
	db, err := cqbound.WitnessDatabase(q, col, 10)
	if err != nil {
		log.Fatal(err)
	}
	out, stats, err := eng.Evaluate(ctx, q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned (%s): output %d tuples, max intermediate %d, %d join steps\n",
		p.Strategy, out.Size(), stats.MaxIntermediate, stats.Joins)

	// Compare against the worst-case optimal baseline explicitly.
	gout, gstats, err := eng.EvaluateStrategy(ctx, cqbound.StrategyGenericJoin, q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generic join: output %d tuples, max intermediate %d, %d extension steps\n",
		gout.Size(), gstats.MaxIntermediate, gstats.Joins)
}
