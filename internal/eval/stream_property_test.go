// The static cells of the property sweep: a pair's database handed as
// built to the pipelined executors — join-project, generic join and (when
// acyclic) Yannakakis called bare — and to an Engine, at one shard count,
// batch size, memory budget and value stride, traced or not, with outputs
// required identical to Naive. The 256-byte budget parks and reloads
// governed shards while the pipelines are still pulling.
package eval_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	cqbound "cqbound"
	"cqbound/internal/batch"
	"cqbound/internal/cq"
	"cqbound/internal/database"
	"cqbound/internal/datagen"
	"cqbound/internal/eval"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

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

// propertyRig holds what outlives one pair of a slice: the spill
// directory, the counters the bare executors share, their governor (built
// at the first budgeted cell's budget) and one Engine per shard count and
// budget.
type propertyRig struct {
	t       *testing.T
	dir     string
	shardM  *counter.Set
	batchM  *counter.Set
	gov     *spill.Governor
	engines map[string]*cqbound.Engine
}

func newPropertyRig(t *testing.T) *propertyRig {
	return &propertyRig{t: t, dir: t.TempDir(), shardM: shard.Counters.NewSet(), batchM: batch.Counters.NewSet(),
		engines: map[string]*cqbound.Engine{}}
}

// close releases the governor's and Engines' spill state; the rig stays
// readable.
func (r *propertyRig) close() {
	r.gov.Close()
	for _, eng := range r.engines {
		eng.Close()
	}
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

// engineCount reads an engine's registry entry.
func engineCount(e *cqbound.Engine, name string) int64 {
	v, _ := e.MetricsSnapshot()[name].(int64)
	return v
}

// cellOptions builds the bare executors' options for a cell, nil for the
// nil-options cell. One scope per pair, like Engine.Evaluate, so the
// pairs' intermediate shards don't accumulate in the shared governor.
func (r *propertyRig) cellOptions(c propertyCell, scope *spill.Scope, tr *trace.Tracer) *shard.Options {
	if c.shards == nilOptions {
		return nil
	}
	opts := &shard.Options{
		MinRows: 0, Shards: c.shards, BatchSize: c.batch,
		Metrics: r.shardM, Batch: r.batchM, Trace: tr,
	}
	if c.budget > 0 {
		if r.gov == nil {
			r.gov = spill.NewGovernor(int64(c.budget), r.dir)
		}
		opts.Spill, opts.Scope = r.gov, scope
	}
	return opts
}

// cellEngine returns the Engine for the cell's shard and budget values,
// built on first use; the nil-options cell gets a default Engine.
func (r *propertyRig) cellEngine(c propertyCell) *cqbound.Engine {
	key := fmt.Sprintf("shards=%d budget=%d", c.shards, c.budget)
	if eng, ok := r.engines[key]; ok {
		return eng
	}
	var opts []cqbound.Option
	if c.shards != nilOptions {
		opts = append(opts, cqbound.WithSharding(0, c.shards))
	}
	if c.budget > 0 {
		opts = append(opts, cqbound.WithMemoryBudget(int64(c.budget)), cqbound.WithSpillDir(r.dir))
	}
	eng := cqbound.NewEngine(opts...)
	r.engines[key] = eng
	return eng
}

// staticDisagreement compares the cell's bare executors and Engine
// against Naive, returning a description of the first inconsistency (""
// when all agree). A traced cell also requires every run to leave a span
// tree.
func (r *propertyRig) staticDisagreement(c propertyCell, q *cq.Query, db *database.Database) string {
	ctx := context.Background()
	if c.stride > 1 {
		if db = spreadDB(db, c.stride); db == nil {
			return fmt.Sprintf("stride %d: the database has too many values to spread in 32 bits", c.stride)
		}
	}
	ref, _, err := eval.NaiveCtx(ctx, q, db)
	if err != nil {
		return fmt.Sprintf("naive: %v", err)
	}
	if ref.Arity() != len(q.Head.Vars) {
		return fmt.Sprintf("naive: output arity %d, head has %d positions", ref.Arity(), len(q.Head.Vars))
	}
	check := func(name string, out *relation.Relation, tc *trace.Trace, err error) string {
		switch {
		case err != nil:
			return fmt.Sprintf("%s: %v", name, err)
		case !relation.Equal(ref, out):
			return fmt.Sprintf("%s: %d tuples, naive has %d", name, out.Size(), ref.Size())
		case c.traced && tc.SpanCount() < 2:
			return fmt.Sprintf("%s: traced run produced %d spans, want a tree", name, tc.SpanCount())
		}
		return ""
	}
	type executor struct {
		name string
		run  func(*shard.Options) (*relation.Relation, eval.Stats, error)
	}
	execs := []executor{
		{"join-project", func(o *shard.Options) (*relation.Relation, eval.Stats, error) {
			return eval.JoinProjectExec(ctx, q, db, nil, o)
		}},
		{"generic-join", func(o *shard.Options) (*relation.Relation, eval.Stats, error) {
			return eval.GenericJoinExec(ctx, q, db, o)
		}},
	}
	if eval.IsAcyclic(q) {
		execs = append(execs, executor{"yannakakis", func(o *shard.Options) (*relation.Relation, eval.Stats, error) {
			return eval.YannakakisExec(ctx, q, db, o)
		}})
	}
	for _, ex := range execs {
		var tr *trace.Tracer
		if c.traced {
			tr = trace.NewTracer(q.String())
		}
		scope := spill.NewScope()
		out, _, err := ex.run(r.cellOptions(c, scope, tr))
		scope.Close()
		if msg := check(ex.name, out, tr.Finish(), err); msg != "" {
			return msg
		}
	}
	eng := r.cellEngine(c)
	if c.traced {
		out, _, tc, err := eng.EvaluateTraced(ctx, q, db)
		return check("engine", out, tc, err)
	}
	out, _, err := eng.Evaluate(ctx, q, db)
	return check("engine", out, nil, err)
}

// checkExercised fails the test unless the static cells at a partition
// count exercised what they exist for: every way an operator runs fired
// (one part, row ranges probing one shared index, a hash projection's
// exchange, a dense-bitmap projection), the bare executors and every
// Engine streamed, and the bare governor and some budgeted Engine evicted
// and reloaded.
func (r *propertyRig) checkExercised() {
	t := r.t
	for _, rung := range []struct{ what, counter string }{
		{"one part", "shard_fallback_ops"},
		{"row ranges", "shard_sharded_ops"},
		{"a shared index probed from several parts", "shard_broadcast_ops"},
		{"a projection's exchange", "shard_exchanged_rows"},
		{"a dense projection", "shard_dense_projections"},
	} {
		if count(r.shardM, rung.counter) == 0 {
			t.Fatalf("%s never ran: %s = 0", rung.what, rung.counter)
		}
	}
	if count(r.batchM, "stream_batches") == 0 || count(r.batchM, "stream_rows") == 0 {
		t.Fatal("the bare executors never streamed")
	}
	if r.gov == nil {
		t.Fatal("no cell ran under the forcing budget")
	}
	if ev, re := r.gov.EventCounts(); ev == 0 || re == 0 {
		t.Fatalf("the forcing budget never spilled (evictions=%d reloads=%d): the sweep is not testing eviction", ev, re)
	}
	r.checkEnginesStreamed()
	for _, eng := range r.engines {
		if engineCount(eng, "spill_evictions") > 0 && engineCount(eng, "spill_reloaded_shards") > 0 {
			return
		}
	}
	t.Fatal("no WithMemoryBudget engine reported nonzero spilled/reloaded shards")
}

// checkEnginesStreamed fails the test unless the rig built an Engine and
// every one streamed batches.
func (r *propertyRig) checkEnginesStreamed() {
	if len(r.engines) == 0 {
		r.t.Fatal("no Engine ran")
	}
	for cell, eng := range r.engines {
		if n, rows := engineCount(eng, "stream_batches"), engineCount(eng, "stream_rows"); n == 0 || rows == 0 {
			r.t.Fatalf("engine %s never streamed (batches=%d rows=%d)", cell, n, rows)
		}
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
// streamed projection passes through without a dedup set. Each runs with
// nil options and a default Engine, and in every static cell of shards
// {1, 4} × batch {1, 1024} × budget {none, 256 B}, against Naive.
func TestCoveringHeadProjections(t *testing.T) {
	db := datagen.EdgeDB(rand.New(rand.NewSource(21)), []string{"E", "R"}, 120, 15)
	rig := newPropertyRig(t)
	defer rig.close()
	for _, text := range []string{
		"Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W).",
		"Q(X,X,Y) <- R(X,Y).",
		"Q(Y,X) <- R(X,Y).",
	} {
		cells := []propertyCell{{shards: nilOptions}}
		for _, shards := range []int{1, 4} {
			for _, bs := range []int{1, 1024} {
				for _, budget := range []int{0, spillBudgetBytes} {
					cells = append(cells, propertyCell{shards: shards, batch: bs, budget: budget})
				}
			}
		}
		for _, c := range cells {
			if msg := rig.staticDisagreement(c, cq.MustParse(text), db); msg != "" {
				t.Fatalf("%s (%s): %s", text, c, msg)
			}
		}
	}
}

// TestSpillMidPlanEviction pins the mechanism on one deterministic case: a
// three-atom path whose Yannakakis reductions and forced subtree results
// are governed transients, a budget far below one relation, and a check
// that the governor evicted while the plan was still running (reloads can
// only happen mid-plan — after the plan, nothing reads).
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
	out, _, err := eval.YannakakisExec(context.Background(), q, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(ref, out) {
		t.Fatalf("spilled output has %d tuples, naive %d", out.Size(), ref.Size())
	}
	ev, re := gov.EventCounts()
	if ev == 0 {
		t.Fatal("512-byte budget over ~400-row relations never evicted")
	}
	if re == 0 {
		t.Fatal("no shard was reloaded mid-plan")
	}
}
