package main

// The library workloads: small-shapes, scaled-joins and
// scaled-joins-budgeted. One operation is a round — one warm
// Engine.Evaluate of each of the workload's queries by a single caller.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cqbound"
	"cqbound/internal/cq"
	"cqbound/internal/eval"
	"cqbound/internal/plan"
)

// libQuery is one query of a round with its database and references.
type libQuery struct {
	name string
	text string
	q    *cqbound.Query
	db   *cqbound.Database
	// naive selects eval.NaiveCtx as the reference path; otherwise set-up
	// picks a strategy other than the planned one and runs it on an
	// unsharded, unbudgeted engine. refPath names what was used.
	naive   bool
	refPath string
	// naiveProbe adds the query to eval.naive_ms.
	naiveProbe bool

	ref resultSig
	// oracle is the paper's bound rmax^C(chase(Q)) (Thm 4.4): no result
	// may exceed it. planBound is what plan.BoundRows prices the query at.
	oracle    float64
	planBound float64
	maxInter  int
}

type libInstance struct {
	cfg     config
	budget  int64
	eng     *cqbound.Engine
	queries []*libQuery
	hasher  *sigHasher
	// reps is how often a cheap probe repeats; heavy probes (whole
	// executors on the scaled inputs) run once.
	reps int
	// fresh regenerates the workload's inputs from the seed: the probes of
	// the budgeted workload run on their own copy, because partitions
	// memoized on the measured relations belong to its governor.
	fresh func() []*libQuery
	ops   int // rounds run so far, across run segments
}

const (
	triangleText = "Q(X,Y,Z) <- E(X,Y), E(Y,Z), E(X,Z)."
	star3Text    = "Q(X,Y,Z,W) <- E(X,Y), E(X,Z), E(X,W)."
	path4Text    = "Q(A,E) <- R(A,B), S(B,C), T(C,D), U(D,E)."
	cycle4Text   = "Q(A,B,C,D) <- E(A,B), E(B,C), E(C,D), E(D,A)."
	agmText      = "Q(X,Y,Z) <- R1(X,Y), R2(X,Z), R3(Y,Z)."
)

func dbOf(rels ...*cqbound.Relation) *cqbound.Database {
	db := cqbound.NewDatabase()
	for _, r := range rels {
		db.MustAdd(r)
	}
	return db
}

func pathDB(seed int64, stream int64, gen func(i int64) []edge) *cqbound.Database {
	var rels []*cqbound.Relation
	for i, name := range []string{"R", "S", "T", "U"} {
		rels = append(rels, edgeRelation(name, gen(stream+int64(i))))
	}
	return dbOf(rels...)
}

// setupSmallShapes builds the five planbench instances: queries of
// 0.1–10 ms, where per-query fixed costs decide the round.
func setupSmallShapes(ctx context.Context, cfg config) (instance, error) {
	s := cfg.Seed
	agmQ := cqbound.MustParse(agmText)
	_, col, err := cqbound.ColorNumber(agmQ)
	if err != nil {
		return nil, err
	}
	agm, err := cqbound.WitnessDatabase(agmQ, col, cfg.scale(14, 2, 6))
	if err != nil {
		return nil, err
	}
	queries := []*libQuery{
		{name: "triangle", text: triangleText, db: dbOf(edgeRelation("E", uniformEdges(streamRNG(s, 1), 400, 60)))},
		{name: "star-3", text: star3Text, db: dbOf(edgeRelation("E", uniformEdges(streamRNG(s, 2), 200, 40)))},
		{name: "path-4", text: path4Text, db: pathDB(s, 3, func(i int64) []edge { return uniformEdges(streamRNG(s, i), 300, 50) })},
		{name: "4-cycle", text: cycle4Text, db: dbOf(edgeRelation("E", uniformEdges(streamRNG(s, 7), 250, 40)))},
		{name: "agm-worstcase-triangle", text: agmText, db: agm},
	}
	for _, q := range queries {
		q.naive, q.naiveProbe = true, true
	}
	return newLibInstance(ctx, cfg, queries, 0, 5)
}

// setupScaled builds the four scaled instances — 10^5 to 10^6 rows flow
// per query — with unlimited memory (budget 0) or under a governor.
func setupScaled(ctx context.Context, cfg config, budget int64) (instance, error) {
	if cfg.Quick && budget > 0 {
		budget = 64 << 10 // the inputs shrink under -quick; so does what forces eviction
	}
	li, err := newLibInstance(ctx, cfg, scaledQueries(cfg), budget, 1)
	if err != nil {
		return nil, err
	}
	li.fresh = func() []*libQuery { return scaledQueries(cfg) }
	return li, nil
}

func scaledQueries(cfg config) []*libQuery {
	s := cfg.Seed
	n := func(full int) int { return cfg.scale(full, 8, 64) }
	return []*libQuery{
		{name: "triangle-50x", text: triangleText, naiveProbe: true,
			db: dbOf(edgeRelation("E", uniformEdges(streamRNG(s, 11), n(20000), n(1000))))},
		{name: "star-3-10x", text: star3Text,
			db: dbOf(edgeRelation("E", uniformEdges(streamRNG(s, 12), n(2000), cfg.scale(130, 3, 16))))},
		{name: "path-4-20x", text: path4Text,
			db: pathDB(s, 13, func(i int64) []edge { return uniformEdges(streamRNG(s, i), n(6000), n(1200)) })},
		{name: "path-4-zipf", text: path4Text,
			db: pathDB(s, 17, func(i int64) []edge { return zipfEdges(streamRNG(s, i), n(3000), n(600), 1.4) })},
	}
}

// engineOptions are the options of the engine under test.
func engineOptions(cfg config, budget int64) ([]cqbound.Option, error) {
	opts := []cqbound.Option{cqbound.WithSharding(shardThreshold, shardCount)}
	if budget > 0 {
		dir := filepath.Join(cfg.OutDir, "spill")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		opts = append(opts, cqbound.WithMemoryBudget(budget), cqbound.WithSpillDir(dir))
	}
	return opts, nil
}

// colorNumber is C(chase(Q)) as a float.
func colorNumber(q *cqbound.Query) (float64, error) {
	c, _, err := cqbound.ColorNumber(q)
	if err != nil {
		return 0, err
	}
	f, _ := c.Float64()
	return f, nil
}

// oracleRows is the paper's size bound rmax^C(chase(Q)) for q over db.
func oracleRows(q *cqbound.Query, db *cqbound.Database) (float64, error) {
	c, err := colorNumber(q)
	if err != nil {
		return 0, err
	}
	rmax, err := db.RMax(q)
	if err != nil {
		return 0, err
	}
	return math.Pow(float64(rmax), c), nil
}

func newLibInstance(ctx context.Context, cfg config, queries []*libQuery, budget int64, reps int) (*libInstance, error) {
	opts, err := engineOptions(cfg, budget)
	if err != nil {
		return nil, err
	}
	li := &libInstance{cfg: cfg, budget: budget, eng: cqbound.NewEngine(opts...), queries: queries,
		hasher: newSigHasher(cqbound.ValueDict()), reps: reps}
	refEng := cqbound.NewEngine()
	for _, lq := range queries {
		lq.q = cqbound.MustParse(lq.text)
		out, err := li.reference(ctx, refEng, lq)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", lq.name, err)
		}
		lq.ref = li.hasher.sig(out)
		if lq.oracle, err = oracleRows(lq.q, lq.db); err != nil {
			return nil, err
		}
		if lq.planBound, err = li.eng.BoundRows(lq.q, lq.db); err != nil {
			return nil, err
		}
	}
	// One warm-up round: plans cached, indexes and partitions memoized.
	warm := newResult()
	li.round(ctx, nil, 0, warm)
	if warm.Failed > 0 {
		li.close()
		return nil, fmt.Errorf("warm-up round failed: %v", warm.fails)
	}
	return li, nil
}

// refStrategies is the order in which reference computes a query's
// reference answer: the cheapest executors on the scaled inputs first.
var refStrategies = []cqbound.Strategy{cqbound.StrategyProjectEarly, cqbound.StrategyYannakakis, cqbound.StrategyGenericJoin}

// reference computes lq's reference answer by a path other than the one
// under test: eval.NaiveCtx, or on refEng (unsharded, unbudgeted) the
// first strategy that can run the query and is not the one the engine
// under test plans — whichever that is, so a later planner change moves
// the reference instead of breaking set-up.
func (li *libInstance) reference(ctx context.Context, refEng *cqbound.Engine, lq *libQuery) (*cqbound.Relation, error) {
	if lq.naive {
		lq.refPath = "eval.NaiveCtx"
		out, _, err := eval.NaiveCtx(ctx, lq.q, lq.db)
		return out, err
	}
	p, err := li.eng.ExplainDB(lq.q, lq.db)
	if err != nil {
		return nil, err
	}
	err = fmt.Errorf("no strategy other than the planned %v", p.Strategy)
	for _, s := range refStrategies {
		if s == p.Strategy {
			continue
		}
		var out *cqbound.Relation
		if out, _, err = refEng.EvaluateStrategy(ctx, s, lq.q, lq.db); err == nil {
			lq.refPath = fmt.Sprintf("EvaluateStrategy(%v), unsharded", s)
			return out, nil
		}
	}
	return nil, err
}

func (li *libInstance) info() map[string]any {
	names := make([]string, len(li.queries))
	for i, q := range li.queries {
		names[i] = fmt.Sprintf("%s(%d rows; reference %s)", q.name, q.ref.Rows, q.refPath)
	}
	return map[string]any{"B": li.budget, "queries": names, "op": "one warm Engine.Evaluate of each query (a round), 1 caller"}
}

func (li *libInstance) close() error { return li.eng.Close() }

// checkResult verifies one result against the query's reference and the
// paper's bound, recording a failure on res.
func checkResult(h *sigHasher, lq *libQuery, out *cqbound.Relation, err error, res *result) bool {
	switch {
	case err != nil:
		res.fail("%s: %v", lq.name, err)
	case float64(out.Size()) > lq.oracle:
		res.fail("%s: %d rows exceed the paper's bound rmax^C = %g", lq.name, out.Size(), lq.oracle)
	default:
		if got := h.sig(out); got != lq.ref {
			res.fail("%s: result %+v differs from reference %+v", lq.name, got, lq.ref)
			return false
		}
		return true
	}
	return false
}

// round runs one operation: each query once. With a recorder, the cold
// steps a plan-cache miss would pay are replayed and timed beside the
// real call, and the registry gauges are read around it.
func (li *libInstance) round(ctx context.Context, rec *recorder, op int, res *result) {
	root := rec.begin(nil, op, "bench", "round")
	failedBefore := res.Failed
	var lat float64
	for _, lq := range li.queries {
		qs := rec.begin(root, op, "bench", "query:"+lq.name)
		if rec != nil {
			li.coldSteps(rec, qs, op, lq, res)
		}
		var before map[string]any
		if rec != nil {
			before = li.eng.MetricsSnapshot()
		}
		es := rec.begin(qs, op, "engine", "Engine.Evaluate")
		t0 := time.Now()
		out, st, err := li.eng.Evaluate(ctx, lq.q, lq.db)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		es.end()
		lat += ms
		res.add("eval:"+lq.name, ms)
		if rec != nil {
			after := li.eng.MetricsSnapshot()
			ev := gaugeDelta(before, after, "spill_evictions", 1)
			es.count("evictions", int64(ev))
			if err == nil {
				es.count("rows", int64(out.Size()))
				es.count("max_intermediate", int64(st.MaxIntermediate))
			}
		}
		if checkResult(li.hasher, lq, out, err, res) {
			lq.maxInter = max(lq.maxInter, st.MaxIntermediate)
		}
		qs.end()
	}
	root.end()
	res.Attempted++
	if res.Failed > failedBefore {
		res.Failed = failedBefore + 1 // a round fails once, however many of its queries did
	}
	res.Lat = append(res.Lat, lat)
}

// coldSteps times the parse and planning steps on the query's own inputs.
func (li *libInstance) coldSteps(rec *recorder, parent *span, op int, lq *libQuery, res *result) {
	s := rec.begin(parent, op, "cq", "cq.Parse")
	q, err := cq.Parse(lq.text)
	s.end()
	if err != nil {
		return
	}
	res.add("parse_us:"+lq.name, s.durationMs()*1e3)
	s = rec.begin(parent, op, "plan", "plan.ChooseForDB")
	p, err := plan.ChooseForDB(q, lq.db)
	s.end()
	if err != nil {
		return
	}
	res.add("choose_us:"+lq.name, s.durationMs()*1e3)
	s = rec.begin(parent, op, "plan", "plan.BoundRows")
	rows, _, _ := plan.BoundRows(p, q, lq.db)
	s.end()
	s.count("bound_rows", int64(math.Min(rows, math.MaxInt64/2)))
	res.add("bound_us:"+lq.name, s.durationMs()*1e3)
}

// engineGauges are the per-round counters read from the engine registry,
// by the name each per-layer metric reports them under.
var engineGauges = map[string]string{
	"shard.sharded_ops":              "shard_sharded_ops",
	"shard.fallback_ops":             "shard_fallback_ops",
	"shard.exchanged_rows":           "shard_exchanged_rows",
	"shard.reused_rows":              "shard_reused_rows",
	"shard.broadcast_ops":            "shard_broadcast_ops",
	"shard.skew_splits":              "shard_skew_splits",
	"batch.batches":                  "stream_batches",
	"batch.rows_streamed":            "stream_rows",
	"batch.buffered_fallbacks":       "stream_buffered_fallbacks",
	"batch.bytes_never_materialized": "stream_bytes_never_materialized",
	"spill.evictions":                "spill_evictions",
	"spill.reloaded_shards":          "spill_reloaded_shards",
	"spill.pin_waits":                "spill_pin_waits",
	"txn.incremental_memos":          "epoch_incremental_memos",
	"txn.rebuilt_relations":          "epoch_rebuilt_relations",
	"txn.swept_buffers":              "epoch_swept_buffers",
	"txn.retired_epochs":             "epoch_retired",
}

// countGauges stores on res, per operation, how far each engine gauge
// moved between two registry snapshots, plus the plan-cache hit fraction,
// and the spill high-water gauges as peaks.
func countGauges(before, after map[string]any, ops int, res *result) {
	counts := res.Counts
	for metric, g := range engineGauges {
		counts[metric] = gaugeDelta(before, after, g, float64(ops))
	}
	hits, misses := gaugeDelta(before, after, "cache_hits", 1), gaugeDelta(before, after, "cache_misses", 1)
	counts["engine.plan_cache_hit_frac"] = absent
	if hits >= 0 && misses >= 0 {
		counts["engine.plan_cache_hit_frac"] = ratio(hits, hits+misses)
	}
	for metric, g := range map[string]string{"spill.bytes_on_disk": "spill_bytes_on_disk", "spill.peak_resident_bytes": "spill_peak_resident_bytes"} {
		res.Peaks[metric] = absent
		if v, ok := gauge(after, g); ok {
			res.Peaks[metric] = float64(v)
		}
	}
	if r, e := counts["shard.reused_rows"], counts["shard.exchanged_rows"]; r >= 0 && e >= 0 {
		counts["shard.reuse_frac"] = ratio(r, r+e)
	}
	if r, e := counts["spill.reloaded_shards"], counts["spill.evictions"]; r >= 0 && e >= 0 {
		counts["spill.reload_per_eviction"] = ratio(r, e)
	}
}

func (li *libInstance) run(ctx context.Context, d time.Duration, rec *recorder) *result {
	res := newResult()
	before := li.eng.MetricsSnapshot()
	start := time.Now()
	for {
		li.ops++
		li.round(ctx, rec, li.ops, res)
		if time.Since(start) >= d || ctx.Err() != nil {
			break
		}
	}
	res.Wall = time.Since(start)
	countGauges(before, li.eng.MetricsSnapshot(), res.Attempted, res)
	return res
}

func (li *libInstance) probe(ctx context.Context, rec *recorder, base, traced *result, vals map[string]float64) {
	root := rec.begin(nil, 0, "bench", "probes")
	defer root.end()
	pb := &prober{ctx: ctx, rec: rec, root: root, hasher: li.hasher, reps: li.reps, vals: vals, checks: newResult()}
	traced.report(vals)
	if peak := vals["spill.peak_resident_bytes"]; li.budget > 0 && peak >= 0 {
		vals["spill.resident_over_budget"] = peak / float64(li.budget)
	}

	// plain is the engine the probes compare against, and queries the
	// inputs they run on: the engine under test and its inputs — or, on
	// the budgeted workload, the same engine without a governor over a
	// fresh copy of the inputs, which also prices what the budget costs.
	plain, queries := li.eng, li.queries
	roundMs := median(append(append([]float64(nil), base.Lat...), traced.Lat...))
	plainRound, plainQuery := roundMs, map[string]float64(nil)
	evaluateOn := func(eng *cqbound.Engine) func(*libQuery) (*cqbound.Relation, error) {
		return func(lq *libQuery) (*cqbound.Relation, error) {
			out, _, err := eng.Evaluate(ctx, lq.q, lq.db)
			return out, err
		}
	}
	if li.budget > 0 {
		plain, queries = cqbound.NewEngine(cqbound.WithSharding(shardThreshold, shardCount)), li.fresh()
		for i, lq := range queries {
			lq.q, lq.ref, lq.oracle, lq.planBound = li.queries[i].q, li.queries[i].ref, li.queries[i].oracle, li.queries[i].planBound
		}
		pb.rounds(queries, 1, "Engine.Evaluate unbudgeted", evaluateOn(plain)) // warm
		plainRound, plainQuery = pb.rounds(queries, 2, "Engine.Evaluate unbudgeted", evaluateOn(plain))
		vals["spill.slowdown_vs_unbudgeted"] = ratio(roundMs, plainRound)
	}

	var execSum, plannedSum, bestSum float64
	for i, lq := range queries {
		vals["cq.parse_us"] += median(traced.Series["parse_us:"+lq.name])
		vals["plan.choose_us"] += median(traced.Series["choose_us:"+lq.name])
		vals["plan.bound_rows_us"] += median(traced.Series["bound_us:"+lq.name])
		vals["eval.max_intermediate_rows"] = math.Max(vals["eval.max_intermediate_rows"], float64(li.queries[i].maxInter))
		exec, best := pb.query(lq)
		planned := median(append(append([]float64(nil), base.Series["eval:"+lq.name]...), traced.Series["eval:"+lq.name]...))
		if li.budget > 0 {
			planned = plainQuery[lq.name]
		}
		execSum, bestSum, plannedSum = execSum+exec, bestSum+best, plannedSum+planned
	}
	pb.bounds(li.queries)
	vals["plan.planned_over_best"] = ratio(plannedSum, bestSum)
	vals["engine.overhead_frac"] = 1 - ratio(execSum, plannedSum)

	// Sharding against one shard, and the engine's own tracing against
	// none, on whole rounds of the same queries.
	p1 := cqbound.NewEngine(cqbound.WithSharding(shardThreshold, 1))
	wide := 2
	if li.reps > 1 {
		wide = 4 * li.reps
	}
	p1Round, _ := pb.rounds(queries, wide, "Engine.Evaluate P=1", evaluateOn(p1))
	vals["shard.speedup_vs_p1"] = ratio(p1Round, plainRound)
	tracedRound, _ := pb.rounds(queries, wide, "Engine.EvaluateTraced", func(lq *libQuery) (*cqbound.Relation, error) {
		out, _, _, err := plain.EvaluateTraced(ctx, lq.q, lq.db)
		return out, err
	})
	untraced := plainRound
	if li.reps > 1 { // cheap rounds: re-measure side by side
		untraced, _ = pb.rounds(queries, wide, "Engine.Evaluate", evaluateOn(plain))
	}
	vals["trace.overhead_frac"] = ratio(tracedRound, untraced) - 1

	pb.intern()
	if li.budget > 0 {
		pb.spill(filepath.Join(li.cfg.OutDir, "spill"))
	}
	vals["bench.intent_ok"] = li.intent(vals)
	pb.mergeInto(traced)
}

// intent reports whether the run did what the workload is for.
func (li *libInstance) intent(vals map[string]float64) float64 {
	ok := true
	switch li.cfg.Workload {
	case wSmallShapes:
		// Every plan is cached and every base input sits below the shard
		// threshold (only intermediates may cross it).
		ok = vals["engine.plan_cache_hit_frac"] > 0.99
		for _, lq := range li.queries {
			for _, name := range lq.db.Names() {
				ok = ok && lq.db.Relation(name).Size() < shardThreshold
			}
		}
	case wScaled:
		ok = vals["spill.evictions"] == 0 && vals["shard.sharded_ops"] > 0
	case wBudgeted:
		// The governor must be evicting and reloading mid-plan.
		ok = vals["spill.evictions"] >= 50 && vals["spill.reloaded_shards"] > 0
		if li.cfg.Quick { // the shrunken inputs only have to evict at all
			ok = vals["spill.evictions"] > 0
		}
	}
	return b2f(ok)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
