// The executor property matrix: the harness's random query/database pairs
// evaluated through the pipelined executors — join-project and (when
// acyclic) Yannakakis called bare, plus an Engine — in every cell of
// shard count × batch size × memory budget, with outputs required
// identical to Naive. Threshold zero makes every join, semijoin and
// projection take the partitioned path whatever its size (empty shards,
// P=1, aligned reuse, broadcast and exchange all occur as the random data
// produces them); batch size 1 hands single-row batches across every stage
// boundary, so an off-by-one in pipeline handoff or exchange scatter
// surfaces at once; the 256-byte budget parks and reloads governed shards
// while the pipelines are still pulling. The Engine has options for the
// shard and budget axes only; it runs at the executors' default batch
// size, which the bare executors cover at every batch size.
package eval_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	cqbound "cqbound"
	"cqbound/internal/batch"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/metrics"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
)

// shardCounts are the partition counts the property harnesses cycle
// through: P=1 (the degenerate single-shard view), tiny P, P larger than
// many of the random databases' distinct values (forcing empty shards).
var shardCounts = []int{1, 2, 3, 5, 16}

// spillBudgetBytes is deliberately tiny against the harness databases
// (tens of tuples × up to 4 columns × 4 bytes each): most iterations hold
// at most one or two shards resident, so eviction fires inside plans, not
// just between them.
const spillBudgetBytes = 256

// propertyMatrix is the executor matrix, one row per axis. Pair i takes
// value i mod len of a cycled axis — the cycled lengths are pairwise
// coprime, so every combination of them recurs — and every value of a
// crossed axis. A new axis is one row here plus its use in cellOptions, and
// in cellEngine when an Engine option sets it.
var propertyMatrix = []struct {
	name    string
	values  []int
	crossed bool
}{
	{"shards", shardCounts, false},
	// 1 exercises every stage boundary per row, 7 never divides the harness
	// relations evenly (partial final batches everywhere), 1024 is the
	// production default.
	{"batch", []int{1, 7, 1024}, false},
	// 0 is unlimited.
	{"budget", []int{0, spillBudgetBytes}, true},
	// 1 keeps the generated values, whose small domains put most
	// projections on the dense bitmap; spreadStride rebuilds every
	// relation with its values that far apart, so every projection that
	// keeps two distinct values in a column deduplicates by hash.
	{"stride", []int{1, spreadStride}, false},
}

// spreadStride is the gap between adjacent values of the stride axis's
// databases: any column holding two distinct values then spans more than
// the dense dedup set's 2^24 bits on its own.
const spreadStride = 1 << 24

// spreadDB rebuilds db with each relation built by NewFromColumns from
// Values stride apart: the value of rank i among all of db's values
// becomes i·stride. The same equalities hold, so the answers are the same
// up to renaming; a nil result means db holds too many distinct values
// to spread within 32 bits.
func spreadDB(db *database.Database, stride int) *database.Database {
	rank := map[relation.Value]relation.Value{}
	for _, v := range db.Universe() {
		if _, ok := rank[v]; !ok {
			rank[v] = relation.Value(len(rank))
		}
	}
	if len(rank)*stride > math.MaxUint32 {
		return nil
	}
	out := database.New()
	for _, name := range db.Names() {
		r := db.Relation(name)
		cols := make([][]relation.Value, r.Arity())
		for c := range cols {
			for _, v := range r.Column(c) {
				cols[c] = append(cols[c], rank[v]*relation.Value(stride))
			}
		}
		out.MustAdd(relation.NewFromColumns(name, r.Attrs, cols))
	}
	return out
}

// propertyCell is one configuration: a value per axis of propertyMatrix.
type propertyCell map[string]int

func (c propertyCell) String() string {
	parts := make([]string, len(propertyMatrix))
	for i, ax := range propertyMatrix {
		parts[i] = fmt.Sprintf("%s=%d", ax.name, c[ax.name])
	}
	return strings.Join(parts, " ")
}

// cellsFor expands the matrix for pair i.
func cellsFor(i int) []propertyCell {
	cells := []propertyCell{{}}
	for _, ax := range propertyMatrix {
		values := ax.values
		if !ax.crossed {
			values = []int{ax.values[i%len(ax.values)]}
		}
		var next []propertyCell
		for _, c := range cells {
			for _, v := range values {
				nc := propertyCell{ax.name: v}
				for k, old := range c {
					nc[k] = old
				}
				next = append(next, nc)
			}
		}
		cells = next
	}
	return cells
}

// propertyRig holds what outlives one pair: the counters the bare
// executors share, one governor per budget, and one Engine per cell.
type propertyRig struct {
	t       *testing.T
	shardM  *counter.Set
	batchM  *counter.Set
	govs    map[int]*spill.Governor
	engines map[string]*cqbound.Engine
}

func newPropertyRig(t *testing.T) *propertyRig {
	return &propertyRig{t: t, shardM: shard.Counters.NewSet(), batchM: batch.Counters.NewSet(),
		govs: map[int]*spill.Governor{}, engines: map[string]*cqbound.Engine{}}
}

// count reads the named counter of m.
func count(m *counter.Set, name string) (v int64) {
	m.Each(func(n string, x int64) {
		if n == name {
			v = x
		}
	})
	return v
}

// spillCount reads the governor's registry entry spill_<name>.
func spillCount(g *spill.Governor, name string) int64 {
	r := metrics.NewRegistry()
	g.Register(r)
	v, _ := r.Value("spill_" + name)
	return v
}

// engineCount reads an engine's registry entry.
func engineCount(e *cqbound.Engine, name string) int64 {
	v, _ := e.MetricsSnapshot()[name].(int64)
	return v
}

// cellOptions builds the bare executors' options for a cell. One scope per
// pair, like Engine.Evaluate, so the pairs' intermediate shards don't
// accumulate in the shared governor.
func (r *propertyRig) cellOptions(c propertyCell, scope *spill.Scope) *shard.Options {
	opts := &shard.Options{
		MinRows: 0, Shards: c["shards"], BatchSize: c["batch"],
		Metrics: r.shardM, Batch: r.batchM,
	}
	if budget := c["budget"]; budget > 0 {
		gov, ok := r.govs[budget]
		if !ok {
			gov = spill.NewGovernor(int64(budget), r.t.TempDir())
			r.t.Cleanup(func() { gov.Close() })
			r.govs[budget] = gov
		}
		opts.Spill, opts.Scope = gov, scope
	}
	return opts
}

// cellEngine returns the Engine for the cell's shard and budget values,
// built on first use.
func (r *propertyRig) cellEngine(c propertyCell) *cqbound.Engine {
	key := fmt.Sprintf("shards=%d budget=%d", c["shards"], c["budget"])
	if eng, ok := r.engines[key]; ok {
		return eng
	}
	opts := []cqbound.Option{cqbound.WithSharding(0, c["shards"])}
	if budget := c["budget"]; budget > 0 {
		opts = append(opts, cqbound.WithMemoryBudget(int64(budget)), cqbound.WithSpillDir(r.t.TempDir()))
	}
	eng := cqbound.NewEngine(opts...)
	r.t.Cleanup(func() { eng.Close() })
	r.engines[key] = eng
	return eng
}

// disagreement compares the cell's bare executors and Engine against
// Naive, returning a description of the first inconsistency ("" when all
// agree).
func (r *propertyRig) disagreement(c propertyCell, q *cq.Query, db *database.Database) string {
	ctx := context.Background()
	if stride := c["stride"]; stride > 1 {
		if db = spreadDB(db, stride); db == nil {
			return fmt.Sprintf("stride %d: the database has too many values to spread in 32 bits", stride)
		}
	}
	ref, _, err := eval.NaiveCtx(ctx, q, db)
	if err != nil {
		return fmt.Sprintf("naive: %v", err)
	}
	check := func(name string, out *relation.Relation, err error) string {
		if err != nil {
			return fmt.Sprintf("%s: %v", name, err)
		}
		if !relation.Equal(ref, out) {
			return fmt.Sprintf("%s: %d tuples, naive has %d", name, out.Size(), ref.Size())
		}
		return ""
	}
	scope := spill.NewScope()
	defer scope.Close()
	opts := r.cellOptions(c, scope)
	out, _, err := eval.JoinProjectExec(ctx, q, db, nil, opts)
	if msg := check("join-project", out, err); msg != "" {
		return msg
	}
	if eval.IsAcyclic(q) {
		out, _, err = eval.YannakakisExec(ctx, q, db, opts)
		if msg := check("yannakakis", out, err); msg != "" {
			return msg
		}
	}
	out, _, err = r.cellEngine(c).Evaluate(ctx, q, db)
	return check("engine", out, err)
}

// TestPropertyExecutorsAgree sweeps the matrix over the harness's pairs.
// After the sweep the counters must show the sweep exercised what it
// exists for: the routing ladder's every rung fired (a dense-bitmap
// projection among them), batches streamed
// through every Engine, and the governors — the bare executors' shared one
// and some budgeted Engine's own — both evicted and reloaded.
func TestPropertyExecutorsAgree(t *testing.T) {
	iters := propertyIterations
	if testing.Short() {
		iters = 60
	}
	profiles := []datagen.QueryParams{
		{MaxVars: 5, MaxAtoms: 4, MaxArity: 3, HeadFraction: 0.7, RepeatRelationProb: 0.3, SimpleFDProb: 0.15},
		{MaxVars: 3, MaxAtoms: 5, MaxArity: 2, HeadFraction: 0.5, RepeatRelationProb: 0.6},
		{MaxVars: 6, MaxAtoms: 3, MaxArity: 4, HeadFraction: 0.9, RepeatRelationProb: 0.2, CompoundFDProb: 0.3},
		{MaxVars: 2, MaxAtoms: 3, MaxArity: 3, HeadFraction: 0.6, RepeatRelationProb: 0.5, SimpleFDProb: 0.3},
	}
	dbProfiles := []datagen.DBParams{
		{Tuples: 12, Universe: 6},
		{Tuples: 25, Universe: 4},
		{Tuples: 6, Universe: 12},
		// Zipf-skewed: one value dominates every column, hashing most rows
		// into one shard, whose part then carries most of the probe work.
		{Tuples: 30, Universe: 8, ZipfS: 1.7},
		{Tuples: 20, Universe: 15, ZipfS: 2.5},
	}
	rig := newPropertyRig(t)
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(propertyBaseSeed + int64(i)))
		q := datagen.RandomQuery(rng, profiles[i%len(profiles)])
		db := datagen.RandomDatabase(rng, q, dbProfiles[i%len(dbProfiles)])
		for _, c := range cellsFor(i) {
			if msg := rig.disagreement(c, q, db); msg != "" {
				check := func(q *cq.Query, db *database.Database) string { return rig.disagreement(c, q, db) }
				q, db, msg = shrink(check, q, db, msg)
				t.Fatalf("iteration %d (seed %d, %s): execution disagrees with naive after shrinking: %s\n"+
					"minimal query:\n%s\nminimal database:\n%s",
					i, propertyBaseSeed+int64(i), c, msg, q, dumpDB(db))
			}
		}
	}
	rig.shardM.Each(func(name string, v int64) {
		// skew_splits stays registered for its readers but no rung splits.
		if v == 0 && name != "skew_splits" {
			t.Fatalf("a rung of the routing ladder never fired: shard %s = 0", name)
		}
	})
	if count(rig.batchM, "batches") == 0 || count(rig.batchM, "rows") == 0 {
		t.Fatal("the bare executors never streamed")
	}
	for _, gov := range rig.govs {
		if ev, re := spillCount(gov, "evictions"), spillCount(gov, "reloaded_shards"); ev == 0 || re == 0 {
			t.Fatalf("the forced-spill budget never spilled (evictions=%d reloads=%d): the sweep is not testing eviction", ev, re)
		}
	}
	spilled := false
	for cell, eng := range rig.engines {
		if n, rows := engineCount(eng, "stream_batches"), engineCount(eng, "stream_rows"); n == 0 || rows == 0 {
			t.Fatalf("engine %s never streamed (batches=%d rows=%d)", cell, n, rows)
		}
		if engineCount(eng, "spill_evictions") > 0 && engineCount(eng, "spill_reloaded_shards") > 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Fatal("no WithMemoryBudget engine reported nonzero spilled/reloaded shards")
	}
}

// TestStreamedBatchSizeOneMatchesDefault pins the extreme directly on one
// deterministic acyclic case: a path query evaluated at batch size 1 and
// at the default must produce identical output, so any stage that
// accidentally depends on batch granularity (dedup, replay, scatter)
// fails loudly without waiting for the random sweep.
func TestStreamedBatchSizeOneMatchesDefault(t *testing.T) {
	q := cq.MustParse("Q(A,D) <- R(A,B), S(B,C), T(C,D).")
	db := datagen.EdgeDB(rand.New(rand.NewSource(9)), []string{"R", "S", "T"}, 200, 30)
	ref, _, err := eval.NaiveCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 1024} {
		opts := &shard.Options{MinRows: 0, Shards: 4, BatchSize: bs}
		out, _, err := eval.YannakakisExec(context.Background(), q, db, opts)
		if err != nil {
			t.Fatalf("batch %d: %v", bs, err)
		}
		if !relation.Equal(ref, out) {
			t.Fatalf("batch %d: %d tuples, naive has %d", bs, out.Size(), ref.Size())
		}
	}
}

// TestCoveringHeadProjections pins the heads whose projection keeps every
// column of the pipeline — a permuted full head, a repeated head variable
// (whose copy must still be named apart), a swapped pair — which the
// streamed projection passes through without a dedup set. Each runs on a
// default Engine and in every cell of shards {1, 4} × batch {1, 1024} ×
// budget {none, 256 B}, against Naive.
func TestCoveringHeadProjections(t *testing.T) {
	db := datagen.EdgeDB(rand.New(rand.NewSource(21)), []string{"E", "R"}, 120, 15)
	rig := newPropertyRig(t)
	plain := cqbound.NewEngine()
	defer plain.Close()
	for _, text := range []string{
		"Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).",
		"Q(X,X,Y) <- R(X,Y).",
		"Q(Y,X) <- R(X,Y).",
	} {
		q := cq.MustParse(text)
		ref, _, err := eval.NaiveCtx(context.Background(), q, db)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := plain.Evaluate(context.Background(), q, db)
		if err != nil {
			t.Fatalf("%s: default engine: %v", text, err)
		}
		if !relation.Equal(ref, out) {
			t.Fatalf("%s: default engine: %d tuples, naive has %d", text, out.Size(), ref.Size())
		}
		for _, shards := range []int{1, 4} {
			for _, bs := range []int{1, 1024} {
				for _, budget := range []int{0, spillBudgetBytes} {
					c := propertyCell{"shards": shards, "batch": bs, "budget": budget}
					if msg := rig.disagreement(c, q, db); msg != "" {
						t.Fatalf("%s (%s): %s", text, c, msg)
					}
				}
			}
		}
	}
}

// TestSpillMidPlanEviction pins the mechanism on one deterministic case: a
// three-join path over relations big enough for several shards, a budget
// far below one relation, and a check that the governor evicted while the
// plan was still running (reloads can only happen mid-plan — after the
// plan, nothing reads).
func TestSpillMidPlanEviction(t *testing.T) {
	gov := spill.NewGovernor(512, t.TempDir())
	defer gov.Close()
	q := cq.MustParse("Q(A,D) <- R(A,B), S(B,C), T(C,D).")
	db := datagen.EdgeDB(rand.New(rand.NewSource(5)), []string{"R", "S", "T"}, 400, 60)
	ref, _, err := eval.NaiveCtx(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	opts := &shard.Options{MinRows: 0, Shards: 8, Spill: gov}
	out, _, err := eval.JoinProjectExec(context.Background(), q, db, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(ref, out) {
		t.Fatalf("spilled output has %d tuples, naive %d", out.Size(), ref.Size())
	}
	if spillCount(gov, "evictions") == 0 {
		t.Fatal("512-byte budget over ~400-row relations never evicted")
	}
	if spillCount(gov, "reloaded_shards") == 0 {
		t.Fatal("no shard was reloaded mid-plan")
	}
}
