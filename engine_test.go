package cqbound

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/relation"
)

// TestEngineExplainMatchesStructuralClass is the acceptance check: the
// planned strategy must match the query's structural class on the canonical
// triangle, star, path, and cyclic-FD queries.
func TestEngineExplainMatchesStructuralClass(t *testing.T) {
	eng := NewEngine()
	cases := []struct {
		name string
		text string
		want Strategy
	}{
		{"star", "Q(X,Y,Z,W) <- F(X,Y), F(X,Z), F(X,W).", StrategyYannakakis},
		{"path", "Q(A,D) <- R(A,B), S(B,C), T(C,D).", StrategyYannakakis},
		{"triangle", "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).", StrategyProjectEarly},
		{"cyclic with FDs", "Q(X,Y,Z) <- R(X,Y,U), S(Y,Z,U), T(Z,X,U).\nfd R[1],R[2] -> R[3].", StrategyGenericJoin},
	}
	for _, c := range cases {
		p, err := eng.Explain(MustParse(c.text))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.Strategy != c.want {
			t.Errorf("%s: strategy = %v, want %v", c.name, p.Strategy, c.want)
		}
		if p.Rationale == "" {
			t.Errorf("%s: plan has no rationale", c.name)
		}
	}
	if eng.CacheSize() != len(cases) {
		t.Errorf("cache size = %d, want %d", eng.CacheSize(), len(cases))
	}
}

func TestEngineEvaluateAgreesAcrossStrategies(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	qp := datagen.QueryParams{
		MaxVars:            5,
		MaxAtoms:           4,
		MaxArity:           3,
		HeadFraction:       0.7,
		RepeatRelationProb: 0.3,
		SimpleFDProb:       0.15,
	}
	for i := 0; i < 40; i++ {
		q := datagen.RandomQuery(rng, qp)
		db := datagen.RandomDatabase(rng, q, datagen.DBParams{Tuples: 10, Universe: 5})
		planned, _, err := eng.Evaluate(ctx, q, db)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		jp, _, err := eng.EvaluateStrategy(ctx, StrategyProjectEarly, q, db)
		if err != nil {
			t.Fatalf("query %d: project-early: %v", i, err)
		}
		gj, _, err := eng.EvaluateStrategy(ctx, StrategyGenericJoin, q, db)
		if err != nil {
			t.Fatalf("query %d: generic join: %v", i, err)
		}
		if !relation.Equal(planned, jp) || !relation.Equal(planned, gj) {
			t.Errorf("query %d (%s): strategies disagree: planned %d, jp %d, gj %d",
				i, q, planned.Size(), jp.Size(), gj.Size())
		}
		if IsAcyclic(q) {
			ya, _, err := eng.EvaluateStrategy(ctx, StrategyYannakakis, q, db)
			if err != nil {
				t.Fatalf("query %d: yannakakis: %v", i, err)
			}
			if !relation.Equal(planned, ya) {
				t.Errorf("query %d (%s): yannakakis disagrees", i, q)
			}
		}
	}
}

func TestEngineAnalyzeCaches(t *testing.T) {
	eng := NewEngine()
	q1 := MustParse("S(X,Y,Z) <- R(X,Y), R(X,Z), R(Y,Z).")
	q2 := MustParse("S(X,Y,Z) <- R(X,Y), R(X,Z), R(Y,Z).") // same canonical text
	a1, err := eng.Analyze(q1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := eng.Analyze(q2)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("identical queries did not share one cached analysis")
	}
	if a1.ColorNumber.RatString() != "3/2" {
		t.Errorf("C = %s, want 3/2", a1.ColorNumber.RatString())
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	eng := NewEngine()
	queries := []string{
		"Q(X,Z) <- R(X,Y), S(Y,Z).",
		"Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).",
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",
	}
	db := NewDatabase()
	for _, name := range []string{"R", "S", "T", "E"} {
		r := NewRelation(name, "a", "b")
		r.Add("1", "2")
		r.Add("2", "3")
		r.Add("1", "3")
		db.MustAdd(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := MustParse(queries[(g+i)%len(queries)])
				if _, err := eng.Explain(q); err != nil {
					t.Errorf("explain: %v", err)
					return
				}
				if _, _, err := eng.Evaluate(context.Background(), q, db); err != nil {
					t.Errorf("evaluate: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if eng.CacheSize() != len(queries) {
		t.Errorf("cache size = %d, want %d", eng.CacheSize(), len(queries))
	}
}

func TestEngineEvaluateHonorsCancellation(t *testing.T) {
	eng := NewEngine()
	q := MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	db := NewDatabase()
	for _, name := range []string{"R", "S"} {
		r := NewRelation(name, "a", "b")
		r.Add("1", "2")
		r.Add("2", "3")
		db.MustAdd(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.EvaluateStrategy(ctx, StrategyGenericJoin, q, db); err == nil {
		t.Error("cancelled evaluation returned no error")
	}
}

func TestEngineEvaluateBatch(t *testing.T) {
	eng := NewEngine()
	db := NewDatabase()
	for _, name := range []string{"R", "S", "T", "E"} {
		r := NewRelation(name, "a", "b")
		for i := 0; i < 30; i++ {
			r.Add(itoa(i%10), itoa((i+1)%10))
		}
		db.MustAdd(r)
	}
	texts := []string{
		"Q(X,Z) <- R(X,Y), S(Y,Z).",
		"Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).",
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",
		"Q(X) <- R(X,X).",
	}
	var queries []*Query
	for i := 0; i < 40; i++ {
		queries = append(queries, MustParse(texts[i%len(texts)]))
	}
	results := eng.EvaluateBatch(context.Background(), queries, db)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d (%s): %v", i, queries[i], res.Err)
		}
		// Batch results must agree with sequential evaluation.
		seq, _, err := eng.Evaluate(context.Background(), queries[i], db)
		if err != nil {
			t.Fatalf("query %d sequential: %v", i, err)
		}
		if !relation.Equal(res.Output, seq) {
			t.Errorf("query %d (%s): batch %d tuples, sequential %d",
				i, queries[i], res.Output.Size(), seq.Size())
		}
	}
}

func TestEngineEvaluateBatchPerQueryErrors(t *testing.T) {
	eng := NewEngine()
	db := NewDatabase()
	r := NewRelation("R", "a", "b")
	r.Add("1", "2")
	db.MustAdd(r)
	queries := []*Query{
		MustParse("Q(X,Y) <- R(X,Y)."),
		MustParse("Q(X,Y) <- Missing(X,Y)."), // reads an absent relation
	}
	results := eng.EvaluateBatch(context.Background(), queries, db)
	if results[0].Err != nil {
		t.Fatalf("healthy query failed: %v", results[0].Err)
	}
	if results[0].Output.Size() != 1 {
		t.Fatalf("healthy query output = %d tuples", results[0].Output.Size())
	}
	if results[1].Err == nil {
		t.Fatal("query over a missing relation reported no error")
	}
}

func TestEngineEvaluateBatchCancellation(t *testing.T) {
	eng := NewEngine()
	db := NewDatabase()
	r := NewRelation("R", "a", "b")
	r.Add("1", "2")
	db.MustAdd(r)
	var queries []*Query
	for i := 0; i < 64; i++ {
		queries = append(queries, MustParse("Q(X,Y) <- R(X,Y)."))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range eng.EvaluateBatch(ctx, queries, db) {
		if res.Err == nil && res.Output == nil {
			t.Fatalf("query %d: canceled batch left a result with neither output nor error", i)
		}
	}
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }

// TestEngineWithSharding: a sharded engine must produce exactly the
// unsharded engine's output on workloads large enough to clear the row
// threshold, for both acyclic (Yannakakis) and cyclic (project-early via
// EvaluateStrategy) shapes.
func TestEngineWithSharding(t *testing.T) {
	ctx := context.Background()
	db := NewDatabase()
	for _, name := range []string{"R", "S", "T", "E"} {
		r := NewRelation(name, "a", "b")
		for i := 0; i < 600; i++ {
			r.Add(fmt.Sprintf("u%d", (i*7+len(name))%80), fmt.Sprintf("u%d", (i*13+1)%80))
		}
		db.MustAdd(r)
	}
	plain := NewEngine()
	sharded := NewEngine(WithSharding(100, 4))
	queries := []string{
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",   // acyclic: Yannakakis
		"Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).", // cyclic triangle
		"Q(X,Z) <- R(X,Y), S(Y,Z).",           // two-atom join
		"Q(X) <- R(X,X).",                     // repeated variable
	}
	for _, text := range queries {
		q := MustParse(text)
		want, _, err := plain.Evaluate(ctx, q, db)
		if err != nil {
			t.Fatalf("%s: unsharded: %v", text, err)
		}
		got, _, err := sharded.Evaluate(ctx, q, db)
		if err != nil {
			t.Fatalf("%s: sharded: %v", text, err)
		}
		if !relation.Equal(want, got) {
			t.Fatalf("%s: sharded engine returned %d tuples, unsharded %d", text, got.Size(), want.Size())
		}
	}
	// Forced project-early under sharding must agree too.
	q := MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).")
	want, _, err := plain.EvaluateStrategy(ctx, StrategyProjectEarly, q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sharded.EvaluateStrategy(ctx, StrategyProjectEarly, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(want, got) {
		t.Fatalf("forced project-early: sharded %d tuples, unsharded %d", got.Size(), want.Size())
	}
}

// TestShardedAnswerAllocatedOnce checks that a warm full-head evaluation
// allocates little beyond its answer's column bytes, sharded or not: each
// part's sink stages rows in pooled chunks, and the answer is allocated
// once and copied into once, with no per-part relations to concatenate.
// The star's 553 436 answers are most of what the plan builds. One P keeps
// the staging chunks in one pool; the race detector makes sync.Pool drop
// Puts at random, so there the bounds are not asserted.
func TestShardedAnswerAllocatedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(12))
	e := NewRelation("E", "a", "b")
	for e.Size() < 2000 {
		e.Add(fmt.Sprintf("u%d", rng.Intn(130)), fmt.Sprintf("u%d", rng.Intn(130)))
	}
	db := NewDatabase()
	db.MustAdd(e)
	q := MustParse("Q(X,A,B,C) <- E(X,A), E(X,B), E(X,C).")
	ctx := context.Background()
	for _, c := range []struct {
		shards int
		times  float64
	}{{4, 1.6}, {1, 1.4}} {
		eng := NewEngine(WithSharding(1024, c.shards))
		out, _, err := eng.Evaluate(ctx, q, db) // warms plan, indexes, partitions and the pool
		if err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		answer := float64(out.Size()*out.Arity()) * float64(unsafe.Sizeof(relation.Value(0)))
		if perRun > c.times*answer {
			t.Errorf("P=%d: %.0f B allocated per evaluation, %.2f× the answer's %.0f column bytes, over %v×",
				c.shards, perRun, perRun/answer, answer, c.times)
		}
	}
}

// metric reads one counter or gauge from the engine's registry.
func metric(t testing.TB, e *Engine, name string) int64 {
	t.Helper()
	v, ok := e.MetricsSnapshot()[name].(int64)
	if !ok {
		t.Fatalf("registry has no counter or gauge %q", name)
	}
	return v
}

// cacheStats reads the analysis- and plan-cache lookup counters.
func cacheStats(t testing.TB, e *Engine) (hits, misses int64) {
	return metric(t, e, "cache_hits"), metric(t, e, "cache_misses")
}

// TestEngineCacheStats pins the cache hit/miss accounting: the first
// Explain/Analyze of a query misses, repeats hit.
func TestEngineCacheStats(t *testing.T) {
	eng := NewEngine()
	q := MustParse("Q(X,Z) <- R(X,Y), S(Y,Z).")
	if h, m := cacheStats(t, eng); h != 0 || m != 0 {
		t.Fatalf("fresh engine stats = %d/%d, want 0/0", h, m)
	}
	if _, err := eng.Explain(q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Explain(q); err != nil {
		t.Fatal(err)
	}
	h, m := cacheStats(t, eng)
	if m != 1 {
		t.Fatalf("misses = %d, want 1 (only the first Explain)", m)
	}
	if h != 2 {
		t.Fatalf("hits = %d, want 2", h)
	}
	if _, err := eng.Analyze(q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(q); err != nil {
		t.Fatal(err)
	}
	h, m = cacheStats(t, eng)
	if h != 3 || m != 2 {
		t.Fatalf("stats after Analyze pair = %d/%d, want 3/2", h, m)
	}
}

// TestRepeatedHeadVariable runs a head that repeats a variable through
// every engine configuration — the streamed projection has to give the
// repeated output column its own name before the sink builds a relation —
// and compares each strategy against the naive reference.
func TestRepeatedHeadVariable(t *testing.T) {
	ctx := context.Background()
	db := datagen.EdgeDB(rand.New(rand.NewSource(17)), []string{"R", "S"}, 60, 12)
	engines := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"sharded", []Option{WithSharding(0, 4)}},
		{"budgeted", []Option{WithSharding(0, 4), WithMemoryBudget(256), WithSpillDir(t.TempDir())}},
	}
	for _, text := range []string{
		"Q(X,X,Y) <- R(X,Y).",
		"Q(X,X,Y) <- R(X,Y), S(Y,Z).",
	} {
		q := MustParse(text)
		want, _, err := eval.NaiveCtx(ctx, q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			eng := NewEngine(e.opts...)
			runs := map[string]func() (*Relation, EvalStats, error){
				"planned": func() (*Relation, EvalStats, error) { return eng.Evaluate(ctx, q, db) },
			}
			for _, s := range []Strategy{StrategyProjectEarly, StrategyYannakakis, StrategyGenericJoin} {
				s := s
				runs[s.String()] = func() (*Relation, EvalStats, error) { return eng.EvaluateStrategy(ctx, s, q, db) }
			}
			for name, run := range runs {
				got, _, err := run()
				if err != nil {
					t.Fatalf("%s / %s / %s: %v", text, e.name, name, err)
				}
				if got.Arity() != 3 || !relation.Equal(want, got) {
					t.Errorf("%s / %s / %s: arity %d, %d tuples; naive has %d", text, e.name, name, got.Arity(), got.Size(), want.Size())
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestJoinsAndSemijoinsNeverExchange pins that no join or semijoin moves a
// row between parts: on an engine in four parts, a project-early triangle
// over 20 000 edges and a Yannakakis path-4 Q(A,E) over four 6 000-edge
// relations exchange nothing (their projections dedup in bitmaps), and
// both answer what Naive does.
func TestJoinsAndSemijoinsNeverExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, c := range []struct {
		strategy Strategy
		q        string
		db       *Database
	}{
		{StrategyProjectEarly, "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).", datagen.EdgeDB(rng, []string{"E"}, 20000, 1000)},
		{StrategyYannakakis, "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).", datagen.EdgeDB(rng, []string{"R", "S", "T", "U"}, 6000, 1200)},
	} {
		eng := NewEngine(WithSharding(1024, 4))
		q := MustParse(c.q)
		got, _, err := eng.EvaluateStrategy(context.Background(), c.strategy, q, c.db)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eval.NaiveCtx(context.Background(), q, c.db)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(got, want) {
			t.Fatalf("%s: %d tuples, naive %d", c.q, got.Size(), want.Size())
		}
		if n := metric(t, eng, "shard_sharded_ops"); n == 0 {
			t.Fatalf("%s: no operator ran in parts", c.q)
		}
		if n := metric(t, eng, "shard_exchanged_rows"); n != 0 {
			t.Errorf("%s: %d rows exchanged between parts, want 0", c.q, n)
		}
	}
}
