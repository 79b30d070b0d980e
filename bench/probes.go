package main

// The isolated layer probes of the traced run: each times one call into a
// layer's public function on a workload query's own inputs, records it as
// a probe span, and verifies what it returns. They import only the layer
// entry points the per-layer table in README.md names (bench_test.go
// enforces the list), so a later change that deletes an internal path
// never has to edit the benchmark to compile.

import (
	"context"
	"fmt"
	"math"
	"os"

	"cqbound"
	"cqbound/internal/batch"
	"cqbound/internal/core"
	"cqbound/internal/cq"
	"cqbound/internal/eval"
	"cqbound/internal/plan"
	"cqbound/internal/relation"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
)

// prober runs probes under one root span and accumulates their per-layer
// metrics in vals; per-query values are summed over the workload's
// queries (the per-query figures are in the span file).
type prober struct {
	ctx    context.Context
	rec    *recorder
	root   *span
	hasher *sigHasher
	// reps is how often a cheap probe repeats (median reported); whole
	// executors on the scaled inputs run once.
	reps   int
	vals   map[string]float64
	checks *result
}

// execOptions are the engine's own sharding and streaming settings, for
// calling the executors the way Engine.Evaluate does.
func execOptions() *shard.Options {
	return &shard.Options{MinRows: shardThreshold, Shards: shardCount, BatchSize: batchSize}
}

// timed runs f reps times, each as a probe span of the layer, and returns
// the median in ms; an error fails the probe and reports 0.
func (pb *prober) timed(layer, name string, reps int, f func() error) float64 {
	xs := make([]float64, 0, reps)
	for i := 0; i < max(reps, 1); i++ {
		s := pb.rec.probe(pb.root, 0, layer, name)
		err := f()
		s.end()
		pb.checks.Attempted++
		if err != nil {
			pb.checks.fail("%s: %v", name, err)
			return 0
		}
		xs = append(xs, s.durationMs())
	}
	return median(xs)
}

// rounds times n rounds of queries through evaluate — each call a probe
// span of the engine layer, each result verified like any operation — and
// returns the median round in ms and each query's median.
func (pb *prober) rounds(queries []*libQuery, n int, name string, evaluate func(*libQuery) (*cqbound.Relation, error)) (float64, map[string]float64) {
	var roundMs []float64
	perQuery := make(map[string][]float64)
	for i := 0; i < n; i++ {
		var total float64
		for _, lq := range queries {
			var out *cqbound.Relation
			ms := pb.timed("engine", name+":"+lq.name, 1, func() (err error) {
				out, err = evaluate(lq)
				return err
			})
			if ms > 0 {
				checkResult(pb.hasher, lq, out, nil, pb.checks)
			}
			total += ms
			perQuery[lq.name] = append(perQuery[lq.name], ms)
		}
		roundMs = append(roundMs, total)
	}
	medians := make(map[string]float64, len(perQuery))
	for k, xs := range perQuery {
		medians[k] = median(xs)
	}
	return median(roundMs), medians
}

// mergeInto adds the probes' verification counts to a run segment and
// prints what failed.
func (pb *prober) mergeInto(res *result) {
	for _, f := range pb.checks.fails {
		fmt.Fprintln(os.Stderr, "bench: failed probe:", f)
	}
	res.Attempted += pb.checks.Attempted
	res.Failed += pb.checks.Failed
}

// query probes the plan and eval layers on one query — a cold analysis,
// the planned execution through plan.ExecuteOpts, and every executor that
// can run it — and the relation, shard and batch layers on its first
// join. It returns the ExecuteOpts time and the fastest executor's.
func (pb *prober) query(lq *libQuery) (execMs, bestMs float64) {
	ctx, q, db, sopts := pb.ctx, lq.q, lq.db, execOptions()
	// executor times one executor call per repeat as a probe span and
	// verifies its output, like any other operation, outside the span.
	executor := func(name string, f func() (*cqbound.Relation, error)) float64 {
		var out *cqbound.Relation
		ms := pb.timed("eval", name+":"+lq.name, pb.reps, func() (err error) {
			out, err = f()
			return err
		})
		if ms > 0 && !checkResult(pb.hasher, lq, out, nil, pb.checks) {
			return 0
		}
		return ms
	}
	pb.vals["core.analyze_cold_ms"] += pb.timed("plan", "core.Analyze:"+lq.name, pb.reps, func() error {
		fresh, err := cq.Parse(lq.text)
		if err == nil {
			_, err = core.Analyze(fresh)
		}
		return err
	})
	p, err := plan.ChooseForDB(q, db)
	if err != nil {
		pb.checks.fail("%s: %v", lq.name, err)
		return 0, 0
	}
	execMs = executor("plan.ExecuteOpts", func() (*cqbound.Relation, error) {
		out, _, err := plan.ExecuteOpts(ctx, p, q, db, sopts)
		return out, err
	})
	bestMs = math.Inf(1)
	exec := func(metric, name string, f func() (*cqbound.Relation, error)) {
		ms := executor(name, f)
		pb.vals[metric] += ms
		if ms > 0 {
			bestMs = math.Min(bestMs, ms)
		}
	}
	exec("eval.joinproject_ms", "eval.JoinProjectExec", func() (*cqbound.Relation, error) {
		out, _, err := eval.JoinProjectExec(ctx, q, db, plan.OrderAtoms(q, db), sopts)
		return out, err
	})
	if cqbound.IsAcyclic(q) {
		exec("eval.yannakakis_ms", "eval.YannakakisExec", func() (*cqbound.Relation, error) {
			out, _, err := eval.YannakakisExec(ctx, q, db, sopts)
			return out, err
		})
	}
	exec("eval.genericjoin_ms", "eval.GenericJoinExec", func() (*cqbound.Relation, error) {
		out, _, err := eval.GenericJoinExec(ctx, q, db, sopts)
		return out, err
	})
	if lq.naiveProbe {
		pb.vals["eval.naive_ms"] += executor("eval.NaiveCtx", func() (*cqbound.Relation, error) {
			out, _, err := eval.NaiveCtx(ctx, q, db)
			return out, err
		})
	}
	if math.IsInf(bestMs, 1) {
		bestMs = 0
	}
	pb.firstJoin(lq)
	return execMs, bestMs
}

// bounds reports how far the planner's pre-execution bound and the
// paper's bound sit above the actual result sizes (mean log2 over the
// queries), and how many queries outgrow the planner's bound.
func (pb *prober) bounds(queries []*libQuery) {
	var slack, oracle float64
	for _, lq := range queries {
		rows := math.Max(float64(lq.ref.Rows), 1)
		slack += math.Log2(math.Max(lq.planBound, 1) / rows)
		oracle += math.Log2(math.Max(lq.oracle, 1) / rows)
		if float64(lq.ref.Rows) > lq.planBound {
			pb.vals["plan.bound_exceeded_ops"]++
		}
	}
	if n := float64(len(queries)); n > 0 {
		pb.vals["plan.bound_slack_log2"] = slack / n
		pb.vals["plan.oracle_slack_log2"] = oracle / n
	}
}

// joinOf finds the first two body atoms of the query that share a
// variable and returns their binding relations (columns named by the
// atoms' variables) with the join's column pairs.
func joinOf(lq *libQuery) (r, s *cqbound.Relation, pairs [][2]int, ok bool) {
	body := lq.q.Body
	bind := func(a cqbound.Atom) *cqbound.Relation {
		base := lq.db.Relation(a.Relation)
		if base == nil {
			return nil
		}
		attrs := make([]string, len(a.Vars))
		for i, v := range a.Vars {
			attrs[i] = string(v)
		}
		b, err := base.Rename(a.Relation, attrs...)
		if err != nil {
			return nil
		}
		return b
	}
	for j := 1; j < len(body); j++ {
		pairs = pairs[:0]
		for i, v := range body[0].Vars {
			for k, w := range body[j].Vars {
				if v == w {
					pairs = append(pairs, [2]int{i, k})
				}
			}
		}
		if len(pairs) > 0 {
			r, s = bind(body[0]), bind(body[j])
			return r, s, pairs, r != nil && s != nil
		}
	}
	return nil, nil, nil, false
}

// freshCopy rebuilds r from copied columns: same rows, no memoized
// index, statistics or partition.
func freshCopy(r *cqbound.Relation) *cqbound.Relation {
	cols := make([][]cqbound.Value, r.Arity())
	for c := range cols {
		cols[c] = append([]cqbound.Value(nil), r.Column(c)...)
	}
	return relation.NewFromColumns(r.Name, r.Attrs, cols)
}

// firstJoin times the relation, shard and batch layers in isolation on
// the query's first join.
func (pb *prober) firstJoin(lq *libQuery) {
	r, s, pairs, ok := joinOf(lq)
	if !ok {
		return
	}
	rCols, sCols := make([]int, len(pairs)), make([]int, len(pairs))
	for i, p := range pairs {
		rCols[i], sCols[i] = p[0], p[1]
	}
	reps := max(pb.reps, 3)
	copies := make([]*cqbound.Relation, 2*reps)
	for i := range copies {
		copies[i] = freshCopy(s)
	}
	next := 0
	fresh := func() *cqbound.Relation { next++; return copies[next-1] }
	pb.vals["relation.index_build_ms"] += pb.timed("relation", "Relation.Index:"+lq.name, reps, func() error {
		fresh().Index(sCols...)
		return nil
	})
	var joined *cqbound.Relation
	pb.vals["relation.hashjoin_ms"] += pb.timed("relation", "relation.HashJoin:"+lq.name, reps, func() (err error) {
		joined, err = relation.HashJoin(r, s, pairs)
		return err
	})
	pb.vals["relation.semijoin_ms"] += pb.timed("relation", "relation.SemijoinOn:"+lq.name, reps, func() error {
		_, err := relation.SemijoinOn(r, s, rCols, sCols)
		return err
	})
	// The engine partitions only inputs at or above the row threshold;
	// below it the shard and batch layers do not run, and neither do
	// their probes.
	if max(r.Size(), s.Size()) < shardThreshold {
		return
	}
	pb.vals["shard.partition_ms"] += pb.timed("shard", "shard.Partition:"+lq.name, reps, func() error {
		shard.Partition(fresh(), sCols[0], shardCount)
		return nil
	})
	// Scan → JoinProbe → Project → Materialize over the same join. The
	// probe's raw layout is all of r's columns then all of s's; the
	// projection drops s's copies of the join columns.
	var idx []int
	var attrs []string
	for c, a := range r.Attrs {
		idx, attrs = append(idx, c), append(attrs, a)
	}
	for c, a := range s.Attrs {
		joinCol := false
		for _, k := range sCols {
			joinCol = joinCol || k == c
		}
		if !joinCol {
			idx, attrs = append(idx, r.Arity()+c), append(attrs, a)
		}
	}
	pb.vals["batch.pipeline_ms"] += pb.timed("batch", "batch.Scan-JoinProbe-Project-Materialize:"+lq.name, reps, func() error {
		it := batch.Project(batch.JoinProbe(batch.Scan(r, batchSize, nil), s, pairs, batchSize, nil), idx, attrs, batchSize, nil)
		out, err := batch.Materialize(pb.ctx, it, "probe", nil, nil)
		if err == nil && joined != nil && out.Size() != joined.Size() {
			err = fmt.Errorf("pipeline produced %d rows, HashJoin %d", out.Size(), joined.Size())
		}
		return err
	})
}

// intern times Dict.Intern on fresh strings, ns per value.
func (pb *prober) intern() {
	const n = 20000
	strs := make([]string, n)
	for i := range strs {
		strs[i] = fmt.Sprintf("intern-%d", i)
	}
	d := cqbound.NewDict()
	ms := pb.timed("relation", "Dict.Intern x20000", 1, func() error {
		for _, str := range strs {
			d.Intern(str)
		}
		return nil
	})
	pb.vals["relation.intern_ns"] = ms * 1e6 / n
}

// spill parks a 1 MiB buffer under a 0.5 MiB governor and pins it back:
// one eviction and one reload through the segment store.
func (pb *prober) spill(dir string) {
	const rows = 128 << 10 // two uint32 columns of 128 Ki rows = 1 MiB
	cols := [][]cqbound.Value{make([]cqbound.Value, rows), make([]cqbound.Value, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i], cols[1][i] = cqbound.Value(i), cqbound.Value(rows-i)
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		gov := spill.NewGovernor(512<<10, dir)
		xs = append(xs, pb.timed("spill", "spill.Manage+Pin 1MiB under 0.5MiB", 1, func() error {
			buf := spill.Manage(gov, cols, rows)
			back := buf.Pin()
			buf.Unpin()
			if len(back) != 2 || len(back[0]) < rows || back[1][1] != cqbound.Value(rows-1) {
				return fmt.Errorf("round trip returned the wrong columns")
			}
			return nil
		}))
		if err := gov.Close(); err != nil {
			pb.checks.fail("closing the probe governor: %v", err)
		}
	}
	pb.vals["spill.roundtrip_ms"] = median(xs)
}
