package cqbound

import (
	"context"
	"math"
	"math/big"
	"strings"
	"testing"

	"cqbound/internal/cover"
	"cqbound/internal/cq"
	"cqbound/internal/eval"
)

// FuzzParseEvaluate fuzzes the query parser and evaluates survivors against
// a small deterministic database, asserting that the parse → validate →
// plan → evaluate pipeline never panics, that planned evaluation returns
// exactly the tuples of the naive reference (eval.NaiveCtx: plain joins and
// one projection, sharing no operator with the pipelines the engine runs),
// and that the output respects the AGM bound rmax^ρ*(Q) — the paper's
// Corollary 4.8 family made executable. The corpus is seeded with the five
// example queries shipped in examples/, two heads that repeat a variable,
// three shapes of Yannakakis' join pass (a path whose forced subtrees
// project onto their parent's variables, and two bodies with a Boolean
// guard atom that shares no variable with the head's atoms), and two heads
// that keep every body variable in another order, whose projection skips
// dedup.
func FuzzParseEvaluate(f *testing.F) {
	// One seed per example program (quickstart, treewidth, optimizer,
	// dataexchange, secretshare).
	seeds := []string{
		"Q(X,Z) <- Follows(X,Y), Follows(Y,Z).",
		"Q(X,Y,Z) <- R(X,Y), R(Y,Z), R(X,Z).\nkey R[1].",
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",
		"Q(X,Y) <- Src(X,U), Map(U,V), Dst(V,Y).\nfd Map[1] -> Map[2].",
		"R0(X1_1,X2_1) <- R1(X1_1,X2_1), T1(X1_1), T2(X2_1).",
		"Q(X,X,Y) <- R(X,Y).",
		"Q(X,X,Y) <- R(X,Y), S(Y,Z).",
		"Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).",
		"Q(X) <- R(X), S(Y).",
		"Q(V1) <- R1(V2), R1(V2), R1(V1).",
		"Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).",
		"Q(Y,X) <- R(X,Y).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	eng := NewEngine()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := cq.Parse(src)
		if err != nil {
			return // rejected input: the parser's job, not a bug
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("Parse accepted a query Validate rejects: %v\nquery: %s", err, q)
		}
		// Keep evaluation tractable: fuzzing explores the parser's full
		// grammar, but evaluation cost is exponential in query size.
		if len(q.Body) > 4 || len(q.Variables()) > 6 {
			return
		}
		for _, a := range q.Body {
			if a.Arity() > 3 {
				return
			}
		}
		db := fuzzDatabase(q)
		out, _, err := eng.Evaluate(context.Background(), q, db)
		if err != nil {
			t.Fatalf("planned evaluation failed on a valid query: %v\nquery: %s", err, q)
		}
		naive, _, err := eval.NaiveCtx(context.Background(), q, db)
		if err != nil {
			t.Fatalf("reference evaluation failed: %v\nquery: %s", err, q)
		}
		if !RelationsEqual(out, naive) {
			t.Fatalf("planned (%d tuples) and reference (%d tuples) disagree\nquery: %s",
				out.Size(), naive.Size(), q)
		}
		// Bound compliance: |Q(D)| ≤ rmax^ρ*(Q) (AGM, Definition 3.5 /
		// Theorem 15 lineage). ρ* covers every variable, so the full join —
		// and any projection of it — obeys the bound.
		res, err := cover.FractionalEdgeCover(q)
		if err != nil || res.Rho == nil {
			return
		}
		rmax, err := db.RMax(q)
		if err != nil || rmax < 2 {
			return
		}
		rho, _ := new(big.Float).SetRat(res.Rho).Float64()
		bound := math.Pow(float64(rmax), rho)
		if float64(out.Size()) > bound*(1+1e-9) {
			t.Fatalf("AGM bound violated: |Q(D)| = %d > rmax^ρ* = %d^%.3f = %.1f\nquery: %s",
				out.Size(), rmax, rho, bound, q)
		}
	})
}

// fuzzDatabase builds a small deterministic instance for q's body schema:
// every relation gets the same dense tuple set over a three-value universe,
// so any parsed query can be evaluated without coordination with the
// fuzzer.
func fuzzDatabase(q *cq.Query) *Database {
	db := NewDatabase()
	universe := []string{"a", "b", "c"}
	for rel, arity := range q.RelationArities() {
		r := NewRelation(rel, attrNamesFor(arity)...)
		row := make([]string, arity)
		var fill func(p int)
		fill = func(p int) {
			if p == arity {
				r.Add(row...)
				return
			}
			for _, u := range universe {
				row[p] = u
				fill(p + 1)
			}
		}
		fill(0)
		db.MustAdd(r)
	}
	return db
}

func attrNamesFor(arity int) []string {
	out := make([]string, arity)
	for i := range out {
		out[i] = "a" + strings.Repeat("i", i+1)
	}
	return out
}
