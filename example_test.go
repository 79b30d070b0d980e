package cqbound_test

import (
	"context"
	"fmt"
	"os"
	"strings"

	"cqbound"
)

// ExampleAnalyze reproduces Example 3.3: the triangle query has color
// number 3/2, so its output is at most rmax^{3/2} — the AGM bound.
func ExampleAnalyze() {
	q := cqbound.MustParse("S(X,Y,Z) <- R(X,Y), R(X,Z), R(Y,Z).")
	a, err := cqbound.Analyze(q)
	if err != nil {
		panic(err)
	}
	fmt.Println("C(chase(Q)) =", a.ColorNumber.RatString())
	fmt.Println("size increase possible:", a.SizeIncreasePossible)
	fmt.Println("treewidth:", a.Treewidth)
	// Output:
	// C(chase(Q)) = 3/2
	// size increase possible: true
	// treewidth: preserved
}

// ExampleChase reproduces Example 2.2: the key R1[1] plus the atom
// R1(W,W,W) force W, X and Y to coincide.
func ExampleChase() {
	q := cqbound.MustParse("R0(W,X,Y,Z) <- R1(W,X,Y), R1(W,W,W), R2(Y,Z).\nkey R1[1].")
	fmt.Println(cqbound.Chase(q).Head)
	// Output:
	// R0(W,W,W,Z)
}

// ExampleEngine_EvaluateStrategy forces one algorithm — here the
// Corollary 4.8 project-early plan — instead of the planner's choice.
func ExampleEngine_EvaluateStrategy() {
	q := cqbound.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := cqbound.NewDatabase()
	r := cqbound.NewRelation("R", "a", "b")
	r.Add("ann", "bob")
	r.Add("cid", "bob")
	s := cqbound.NewRelation("S", "a", "b")
	s.Add("bob", "dan")
	db.MustAdd(r)
	db.MustAdd(s)
	eng := cqbound.NewEngine()
	out, _, err := eng.EvaluateStrategy(context.Background(), cqbound.StrategyProjectEarly, q, db)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Size(), "tuples")
	// Output:
	// 2 tuples
}

// ExampleTwoColoringExists shows the Proposition 5.9 characterization: the
// sibling view admits a 2-coloring with color number 2, so it cannot
// preserve bounded treewidth.
func ExampleTwoColoringExists() {
	q := cqbound.MustParse("V(Y,Z) <- Edge(X,Y), Edge(X,Z).")
	_, unboundedTW := cqbound.TwoColoringExists(q)
	fmt.Println("treewidth can blow up:", unboundedTW)

	keyed := cqbound.MustParse("V(X,Z) <- Edge(X,Y), Edge(Y,Z).\nkey Edge[1].")
	_, unboundedTW = cqbound.TwoColoringExists(keyed)
	fmt.Println("with keys:", unboundedTW)
	// Output:
	// treewidth can blow up: true
	// with keys: false
}

// ExampleSizeIncreasePossible shows the polynomial Theorem 7.2 decision.
func ExampleSizeIncreasePossible() {
	grow := cqbound.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	flat := cqbound.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).\nkey S[1].")
	fmt.Println(cqbound.SizeIncreasePossible(grow), cqbound.SizeIncreasePossible(flat))
	// Output:
	// true false
}

// ExampleWithSharding builds an engine that runs in parts: a pipeline
// that scans a relation of at least `threshold` rows splits it into the
// given number of row ranges, and every part probes the same index of
// each join's other side. Outputs are identical to a one-part engine's.
func ExampleWithSharding() {
	q := cqbound.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := cqbound.NewDatabase()
	r := cqbound.NewRelation("R", "a", "b")
	s := cqbound.NewRelation("S", "a", "b")
	for i := 0; i < 100; i++ {
		r.Add(fmt.Sprintf("x%d", i%10), fmt.Sprintf("y%d", i%7))
		s.Add(fmt.Sprintf("y%d", i%7), fmt.Sprintf("z%d", i%5))
	}
	db.MustAdd(r)
	db.MustAdd(s)

	sharded := cqbound.NewEngine(cqbound.WithSharding(0, 4)) // threshold 0: every scan in 4 row ranges
	plain := cqbound.NewEngine()
	ctx := context.Background()
	a, _, err := sharded.Evaluate(ctx, q, db)
	if err != nil {
		panic(err)
	}
	b, _, err := plain.Evaluate(ctx, q, db)
	if err != nil {
		panic(err)
	}
	fmt.Println("sharded:", a.Size(), "tuples; identical:", cqbound.RelationsEqual(a, b))
	// Output:
	// sharded: 50 tuples; identical: true
}

// ExampleEngine_MetricsSnapshot reads counters from the registry, the one
// place every counter lives: the plan cache misses on a query text's first
// evaluation and hits on repeats, and the shard counters show operators
// running in several parts without a row crossing between them.
func ExampleEngine_MetricsSnapshot() {
	q := cqbound.MustParse("Q(A,D) <- R(A,B), S(B,C), T(C,D).")
	db := cqbound.NewDatabase()
	for _, name := range []string{"R", "S", "T"} {
		rel := cqbound.NewRelation(name, "a", "b")
		for i := 0; i < 60; i++ {
			rel.Add(fmt.Sprintf("u%d", i%12), fmt.Sprintf("u%d", (i+1)%12))
		}
		db.MustAdd(rel)
	}
	eng := cqbound.NewEngine(cqbound.WithSharding(0, 4))
	for i := 0; i < 3; i++ {
		if _, _, err := eng.Evaluate(context.Background(), q, db); err != nil {
			panic(err)
		}
	}
	snap := eng.MetricsSnapshot()
	fmt.Println("cache hits:", snap["cache_hits"], "misses:", snap["cache_misses"])
	fmt.Println("ran sharded:", snap["shard_sharded_ops"].(int64) > 0 && snap["shard_fallback_ops"] == int64(0))
	fmt.Println("rows exchanged:", snap["shard_exchanged_rows"])
	// Output:
	// cache hits: 2 misses: 1
	// ran sharded: true
	// rows exchanged: 0
}

// ExampleWithMemoryBudget builds an engine whose resident intermediates are
// capped: when the path's Yannakakis reductions and forced subtree results
// exceed the budget, the coldest unpinned ones are parked as segments in a
// file under the spill directory and reloaded transparently on next use.
// Outputs are identical to an unbudgeted engine's; the spill_* counters
// show the governor at work, and Close removes the spill file.
func ExampleWithMemoryBudget() {
	q := cqbound.MustParse("Q(A,D) <- R(A,B), S(B,C), T(C,D).")
	db := cqbound.NewDatabase()
	for _, name := range []string{"R", "S", "T"} {
		rel := cqbound.NewRelation(name, "a", "b")
		for i := 0; i < 300; i++ {
			rel.Add(fmt.Sprintf("u%d", (i*7)%50), fmt.Sprintf("u%d", (i*13)%80))
		}
		db.MustAdd(rel)
	}

	budgeted := cqbound.NewEngine(
		cqbound.WithSharding(0, 8),         // eight parts: more, smaller transients
		cqbound.WithMemoryBudget(512),      // far below the working set
		cqbound.WithSpillDir(os.TempDir()), // default; private subdir per engine
	)
	defer budgeted.Close()
	plain := cqbound.NewEngine()
	ctx := context.Background()
	a, _, err := budgeted.Evaluate(ctx, q, db)
	if err != nil {
		panic(err)
	}
	b, _, err := plain.Evaluate(ctx, q, db)
	if err != nil {
		panic(err)
	}
	snap := budgeted.MetricsSnapshot()
	fmt.Println("identical:", cqbound.RelationsEqual(a, b))
	fmt.Println("spilled:", snap["spill_evictions"].(int64) > 0, "reloaded:", snap["spill_reloaded_shards"].(int64) > 0)
	// Output:
	// identical: true
	// spilled: true reloaded: true
}

// ExampleEngine_ResetStats scopes the engine's counters to a window: reset
// before a query, snapshot after it — per-query shard and spill numbers
// instead of run-long sums.
func ExampleEngine_ResetStats() {
	q := cqbound.MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := cqbound.NewDatabase()
	r := cqbound.NewRelation("R", "a", "b")
	s := cqbound.NewRelation("S", "a", "b")
	for i := 0; i < 80; i++ {
		r.Add(fmt.Sprintf("x%d", i%20), fmt.Sprintf("y%d", i%9))
		s.Add(fmt.Sprintf("y%d", i%9), fmt.Sprintf("z%d", i%6))
	}
	db.MustAdd(r)
	db.MustAdd(s)
	eng := cqbound.NewEngine(cqbound.WithSharding(0, 4))
	ctx := context.Background()
	if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
		panic(err)
	}
	eng.ResetStats() // drop warm-up traffic
	if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
		panic(err)
	}
	snap := eng.MetricsSnapshot()
	fmt.Println("window cache hits:", snap["cache_hits"], "misses:", snap["cache_misses"])
	fmt.Println("window sharded ops:", snap["shard_sharded_ops"].(int64) > 0)
	// Output:
	// window cache hits: 1 misses: 0
	// window sharded ops: true
}

// ExampleEngine_Begin ingests through a transaction, evaluates against a
// pinned snapshot, and shows the snapshot surviving a later commit: the
// reader's epoch is frozen until it closes.
func ExampleEngine_Begin() {
	eng := cqbound.NewEngine()
	txn := eng.Begin()
	txn.Create("Parent", "parent", "child")
	txn.Add("Parent", "alice", "bob")
	txn.Add("Parent", "bob", "carol")
	epoch, err := txn.Commit()
	if err != nil {
		panic(err)
	}
	fmt.Println("published epoch:", epoch)

	snap := eng.Snapshot() // pin the epoch the batch just published
	defer snap.Close()
	q := cqbound.MustParse("Q(X,Z) <- Parent(X,Y), Parent(Y,Z).")
	out, _, err := eng.Evaluate(context.Background(), q, snap.DB())
	if err != nil {
		panic(err)
	}
	out.Each(func(t cqbound.Tuple) bool {
		fmt.Println("grandparent:", t.StringsIn(eng.Dict()))
		return true
	})

	// A writer commits meanwhile; the pinned snapshot is unaffected.
	txn = eng.Begin()
	txn.Add("Parent", "carol", "dave")
	txn.Commit()
	fmt.Println("snapshot still sees:", snap.DB().Relation("Parent").Size(), "rows")
	fmt.Println("live epoch sees:", eng.Snapshot().DB().Relation("Parent").Size(), "rows")
	// Output:
	// published epoch: 2
	// grandparent: [alice carol]
	// snapshot still sees: 2 rows
	// live epoch sees: 3 rows
}

// ExampleEngine_ExplainAnalyze renders the annotated plan for the
// triangle query: the paper's worst-case bound and the per-operator
// System-R estimates next to the actual row counts each operator
// produced. Only the strategy line is deterministic — row counts and
// wall times vary — so the example checks the annotations' presence.
func ExampleEngine_ExplainAnalyze() {
	eng := cqbound.NewEngine()
	q := cqbound.MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	db := cqbound.NewDatabase()
	e := cqbound.NewRelation("E", "a", "b")
	for i := 0; i < 30; i++ {
		for j := 1; j <= 5; j++ {
			e.Add(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+j)%30))
		}
	}
	db.MustAdd(e)
	out, err := eng.ExplainAnalyze(context.Background(), q, db)
	if err != nil {
		panic(err)
	}
	fmt.Println(strings.SplitN(out, "\n", 2)[0])
	fmt.Println("paper bound on root:", strings.Contains(out, "rmax^C"))
	fmt.Println("per-operator estimates:", strings.Contains(out, "est="))
	fmt.Println("stats deltas:", strings.Contains(out, "deltas"))
	// Output:
	// strategy: project-early
	// paper bound on root: true
	// per-operator estimates: true
	// stats deltas: true
}
