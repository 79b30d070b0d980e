package cqbound

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"cqbound/internal/coloring"
	"cqbound/internal/construct"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/entropy"
	"cqbound/internal/eval"
	"cqbound/internal/experiments"
	"cqbound/internal/graph"
	"cqbound/internal/hornsat"
	"cqbound/internal/plan"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/treewidth"
)

// One benchmark per experiment of the harness; each regenerates the
// corresponding paper artifact end to end (see DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for recorded results).

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if failed := rep.Failed(); len(failed) > 0 {
			b.Fatalf("%s: %d rows diverge from the paper:\n%s", id, len(failed), rep)
		}
	}
}

func BenchmarkE01_Example2_1(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE02_ChaseExample(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE03_Triangle(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE04_SizeBoundNoFDs(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE05_SizeBoundSimpleFDs(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE06_JoinProjectPlan(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE07_GridBlowup(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE08_KeyedJoinTW(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE09_KeyedJoinChain(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10_TWPreservationNoFDs(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11_TWPreservationFDs(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12_SizePreservation(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13_InformationDiagram(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14_ShamirGap(b *testing.B)           { benchExperiment(b, "E14") }
func BenchmarkE15_EntropyLP(b *testing.B)           { benchExperiment(b, "E15") }
func BenchmarkE16_HornSATDecision(b *testing.B)     { benchExperiment(b, "E16") }
func BenchmarkE17_NPHardnessReduction(b *testing.B) { benchExperiment(b, "E17") }
func BenchmarkE18_PolyTimeColorNumber(b *testing.B) { benchExperiment(b, "E18") }
func BenchmarkE19_KnittedComplexity(b *testing.B)   { benchExperiment(b, "E19") }
func BenchmarkE20_ZhangYeung(b *testing.B)          { benchExperiment(b, "E20") }

// Ablations for the design choices DESIGN.md calls out.

// BenchmarkAblationLPBackend compares the exact rational simplex with the
// float64 simplex on the Proposition 6.9 entropy program of the triangle
// query.
func BenchmarkAblationLPBackend(b *testing.B) {
	q := cq.MustParse("S(X,Y,Z) <- R(X,Y), R(X,Z), R(Y,Z).")
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := entropy.SizeBoundExponent(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := entropy.SizeBoundExponentFloat(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationJoinStrategy compares the three evaluation strategies on
// the AGM-tight triangle witness.
func BenchmarkAblationJoinStrategy(b *testing.B) {
	q := cq.MustParse("S(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).")
	_, col, err := coloring.NumberNoFDs(q)
	if err != nil {
		b.Fatal(err)
	}
	db, err := construct.ProductWitness(q, col, 12)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, f func(*cq.Query, *database.Database) (int, error)) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("naive", func(q *cq.Query, db *database.Database) (int, error) {
		out, _, err := eval.Naive(q, db)
		if err != nil {
			return 0, err
		}
		return out.Size(), nil
	})
	run("joinproject", func(q *cq.Query, db *database.Database) (int, error) {
		out, _, err := eval.JoinProject(q, db)
		if err != nil {
			return 0, err
		}
		return out.Size(), nil
	})
	run("genericjoin", func(q *cq.Query, db *database.Database) (int, error) {
		out, _, err := eval.GenericJoin(q, db)
		if err != nil {
			return 0, err
		}
		return out.Size(), nil
	})
}

// BenchmarkAblationAcyclicStrategy compares Yannakakis with the binary
// plans on a chain query full of dangling tuples — the workload where the
// semijoin passes pay off — and, under path-4-projected, with project-early
// on a Zipf-skewed path Q(A,E) whose hub values reach each (A,C) pair
// through many Bs: the workload where projecting each forced subtree onto
// its parent's variables plus the head keeps Yannakakis level with
// project-early.
func BenchmarkAblationAcyclicStrategy(b *testing.B) {
	q := cq.MustParse("Q(X,W) <- R(X,Y), S(Y,Z), T(Z,W).")
	r := relation.New("R", "a", "b")
	s := relation.New("S", "a", "b")
	tt := relation.New("T", "a", "b")
	for i := 0; i < 400; i++ {
		r.Add(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i%20))
		s.Add(fmt.Sprintf("y%d", i%40), fmt.Sprintf("z%d", i%40))
		tt.Add(fmt.Sprintf("zdangle%d", i), fmt.Sprintf("w%d", i))
	}
	tt.Add("z0", "w0")
	db := database.New()
	db.MustAdd(r)
	db.MustAdd(s)
	db.MustAdd(tt)
	b.Run("yannakakis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Yannakakis(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("joinproject", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.JoinProject(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Naive(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path-4-projected", func(b *testing.B) {
		q := cq.MustParse("Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).")
		db := datagen.ZipfEdgeDB(rand.New(rand.NewSource(17)), []string{"R", "S", "T", "U"}, 3000, 600, 1.4)
		b.Run("yannakakis", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Yannakakis(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("joinproject", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.JoinProject(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkAblationJoinAlgorithm compares the hash equi-join with the
// sort-merge equi-join on a skewed instance.
func BenchmarkAblationJoinAlgorithm(b *testing.B) {
	r := relation.New("R", "a", "b")
	s := relation.New("S", "c", "d")
	for i := 0; i < 3000; i++ {
		r.Add(fmt.Sprintf("r%d", i), fmt.Sprintf("k%d", i%100))
		s.Add(fmt.Sprintf("k%d", i%500), fmt.Sprintf("s%d", i))
	}
	pairs := [][2]int{{1, 0}}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relation.EquiJoin(r, s, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sortmerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relation.EquiJoinSortMerge(r, s, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTreewidthHeuristic compares min-degree and min-fill
// elimination orderings on grids (true treewidth 6).
func BenchmarkAblationTreewidthHeuristic(b *testing.B) {
	g := graph.Grid(6, 10)
	b.Run("mindegree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order := treewidth.MinDegreeOrder(g)
			d, err := treewidth.FromEliminationOrder(g, order)
			if err != nil {
				b.Fatal(err)
			}
			_ = d.Width()
		}
	})
	b.Run("minfill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order := treewidth.MinFillOrder(g)
			d, err := treewidth.FromEliminationOrder(g, order)
			if err != nil {
				b.Fatal(err)
			}
			_ = d.Width()
		}
	})
}

// Micro-benchmarks of the core algorithms.

func BenchmarkColorNumberPipeline(b *testing.B) {
	q := cq.MustParse("R0(X1) <- R1(X1,X2,X3), R2(X1,X4), R3(X5,X1).\nkey R1[1].\nkey R2[1].\nkey R3[1].")
	for i := 0; i < b.N; i++ {
		if _, _, _, err := coloring.NumberWithSimpleFDs(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHornSATDecision(b *testing.B) {
	q, _, err := construct.Shamir(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hornsat.DecideSizeIncrease(q)
	}
}

func BenchmarkExactTreewidthGrid4x4(b *testing.B) {
	g := graph.Grid(4, 4)
	for i := 0; i < b.N; i++ {
		if _, _, err := treewidth.Exact(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	for _, src := range []string{
		"S(X,Y,Z) <- R(X,Y), R(X,Z), R(Y,Z).",
		"Q(X,Z) <- R(X,Y), S(Y,Z).\nkey S[1].",
	} {
		q := cq.MustParse(src)
		b.Run(fmt.Sprintf("vars=%d", len(q.Variables())), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Benchmarks of the interned columnar substrate (PR 2): canonical join
// shapes end to end through the Engine, plus the parallel batch API. The
// repository benchmark (bench/) records the same shapes end to end as
// op_p50_ms and the eval.*_ms per-strategy figures.

func benchDB(relNames []string, edges, universe int) *Database {
	db := NewDatabase()
	for _, name := range relNames {
		r := NewRelation(name, "a", "b")
		for i := 0; i < edges; i++ {
			r.Add(fmt.Sprintf("u%d", (i*7)%universe), fmt.Sprintf("u%d", (i*13+1)%universe))
		}
		db.MustAdd(r)
	}
	return db
}

func benchEngineQuery(b *testing.B, text string, db *Database) {
	b.Helper()
	eng := NewEngine()
	q := MustParse(text)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTriangle(b *testing.B) {
	benchEngineQuery(b, "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).", benchDB([]string{"E"}, 400, 60))
}

func BenchmarkEngineStar(b *testing.B) {
	benchEngineQuery(b, "Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).", benchDB([]string{"E"}, 200, 40))
}

func BenchmarkEngineChain(b *testing.B) {
	benchEngineQuery(b, "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).",
		benchDB([]string{"R", "S", "T", "U"}, 300, 50))
}

// BenchmarkEngineWorstCase evaluates the triangle query on its
// Proposition 4.5 AGM-tight witness database.
func BenchmarkEngineWorstCase(b *testing.B) {
	q := cq.MustParse("Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).")
	_, col, err := coloring.NumberNoFDs(q)
	if err != nil {
		b.Fatal(err)
	}
	db, err := construct.ProductWitness(q, col, 14)
	if err != nil {
		b.Fatal(err)
	}
	benchEngineQuery(b, "Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z).", db)
}

// BenchmarkEngineEvaluateBatch measures the bounded-pool batch API against
// a mixed workload over one database.
func BenchmarkEngineEvaluateBatch(b *testing.B) {
	db := benchDB([]string{"R", "S", "T", "E"}, 300, 50)
	texts := []string{
		"Q(X,Z) <- R(X,Y), S(Y,Z).",
		"Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z).",
		"Q(A,D) <- R(A,B), S(B,C), T(C,D).",
		"Q(X) <- R(X,X).",
	}
	var queries []*Query
	for i := 0; i < 32; i++ {
		queries = append(queries, MustParse(texts[i%len(texts)]))
	}
	eng := NewEngine()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range eng.EvaluateBatch(ctx, queries, db) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkEvaluateAfterCommit measures one ingest-and-read step: commit
// 50 rows to E, then evaluate a triangle over E (project-early) and a
// two-hop over E and F (Yannakakis) on the new epoch. Each iteration reads
// an epoch no earlier evaluation saw, so it pays whatever planning the
// engine does per epoch. E grows by 50 new rows an iteration (distinct for
// the first 80 000 iterations), and evaluation reads all of E, so compare
// runs at a fixed -benchtime Nx.
func BenchmarkEvaluateAfterCommit(b *testing.B) {
	const universe = 2000
	eng := NewEngine()
	txn := eng.Begin()
	txn.Create("E", "a", "b")
	txn.Create("F", "a", "b")
	for i := 0; i < 1000; i++ {
		txn.Add("E", fmt.Sprintf("u%d", (i*7)%universe), fmt.Sprintf("u%d", (i*13+1)%universe))
		txn.Add("F", fmt.Sprintf("u%d", (i*11)%universe), fmt.Sprintf("u%d", (i*17+2)%universe))
	}
	if _, err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	queries := []*Query{
		MustParse("Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z)."),
		MustParse("Q(X,Z) <- E(X,Y), F(Y,Z)."),
	}
	ctx := context.Background()
	seq := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := eng.Begin()
		for k := 0; k < 50; k++ {
			seq++
			txn.Add("E", fmt.Sprintf("u%d", seq%universe), fmt.Sprintf("u%d", (seq*7+seq/universe)%universe))
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		snap := eng.Snapshot()
		for _, q := range queries {
			if _, _, err := eng.Evaluate(ctx, q, snap.DB()); err != nil {
				b.Fatal(err)
			}
		}
		snap.Close()
	}
}

// BenchmarkRelationInsert measures the interned columnar insert path.
func BenchmarkRelationInsert(b *testing.B) {
	vals := make([]relation.Value, 2048)
	for i := range vals {
		vals[i] = relation.V(fmt.Sprintf("v%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := relation.New("R", "a", "b", "c")
		for j := 0; j < 1024; j++ {
			r.MustInsert(vals[j%2048], vals[(j*31)%2048], vals[(j*17)%2048])
		}
	}
}

// BenchmarkSemijoinIndexed measures the index-backed semijoin on the
// dangling-tuple workload Yannakakis cares about.
func BenchmarkSemijoinIndexed(b *testing.B) {
	r := relation.New("R", "a", "b")
	s := relation.New("S", "b", "c")
	for i := 0; i < 5000; i++ {
		r.Add(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i%50))
		s.Add(fmt.Sprintf("y%d", i%200), fmt.Sprintf("z%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.Semijoin(r, s); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmarks of the sharded execution layer (PR 3): the same scaled
// workloads through a plain Engine and a WithSharding Engine. On a
// single-core runner the sharded gain is cache locality (P small hash and
// dedup maps instead of one large one); with more cores the per-shard work
// additionally fans out over the pool. The repository benchmark (bench/)
// records the same comparison as shard.speedup_vs_p1 on scaled-joins.

func benchScaledStarDB() *Database {
	return datagen.EdgeDB(rand.New(rand.NewSource(12)), []string{"E"}, 2000, 130)
}

func benchScaledChainDB() *Database {
	return datagen.EdgeDB(rand.New(rand.NewSource(13)), []string{"R", "S", "T", "U"}, 6000, 1200)
}

func benchEngineWith(b *testing.B, eng *Engine, text string, db *Database) {
	b.Helper()
	q := MustParse(text)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Evaluate(ctx, q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineStarScaled(b *testing.B) {
	benchEngineWith(b, NewEngine(), "Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).", benchScaledStarDB())
}

func BenchmarkEngineStarScaledSharded(b *testing.B) {
	benchEngineWith(b, NewEngine(WithSharding(1024, 16)),
		"Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).", benchScaledStarDB())
}

func BenchmarkEngineChainScaled(b *testing.B) {
	benchEngineWith(b, NewEngine(), "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).", benchScaledChainDB())
}

func BenchmarkEngineChainScaledSharded(b *testing.B) {
	benchEngineWith(b, NewEngine(WithSharding(1024, 16)),
		"Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).", benchScaledChainDB())
}

// The sharded benchmarks above already measure the column-batch
// pipelines at the Engine's batch size (batch.DefaultSize); this one
// sweeps the executors' batch size on the chain, running the planned
// strategy directly with the same sharding the Engine benchmarks use.

func BenchmarkEngineChainScaledStreamedBatchSize(b *testing.B) {
	db := benchScaledChainDB()
	q := MustParse("Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E).")
	p, err := plan.ChooseForDB(q, db)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bs := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			opts := &shard.Options{MinRows: 1024, Shards: 16, BatchSize: bs}
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.ExecuteOpts(ctx, p, q, db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBenchModuleBuilds vets bench/, the repository benchmark: it is a
// module of its own (BENCHMARK.json runs it from source) compiled against
// this module's packages, so `go test ./...` here never builds it and an
// API change could break it unseen. It also runs bench/'s two API pins:
// every registry name the benchmark reads still exists, and it imports
// only allowed entry points.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	for _, args := range [][]string{
		{"vet", "-C", "bench", "./..."},
		{"test", "-C", "bench", "-run", "^(TestGaugesExist|TestImportAllowList)$", "./..."},
	} {
		cmd := exec.Command("go", args...)
		// Build what is checked out here, not what a go.work above it names.
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
