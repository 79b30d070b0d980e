package cqbound

// Observability: per-evaluation tracing (EvaluateTraced, ExplainAnalyze,
// trace sinks) and the typed metric registry (Metrics, MetricsSnapshot).
// Tracing is opt-in per call or engine-wide via WithTracing; an untraced
// evaluation pays only nil checks on the instrumentation points.

import (
	"context"
	"io"
	"time"

	"cqbound/internal/batch"
	"cqbound/internal/metrics"
	"cqbound/internal/obs"
	"cqbound/internal/plan"
	"cqbound/internal/shard"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// Tracing types (internal/trace).
type (
	// Trace is one finished evaluation's span tree plus the per-query
	// deltas of the engine's five stats families.
	Trace = trace.Trace
	// TraceSpan is one node of a trace: a plan stage or operator with its
	// row counts, size estimate, fan-out and wall time.
	TraceSpan = trace.Span
	// TraceSink receives finished traces; Emit runs synchronously after
	// each traced evaluation.
	TraceSink = trace.Sink
	// TraceSinkFunc adapts a function to the TraceSink interface.
	TraceSinkFunc = trace.SinkFunc
	// SlowQueryLog is a TraceSink writing one JSON line per trace at or
	// above a wall-time threshold.
	SlowQueryLog = trace.SlowQueryLog
	// MetricsRegistry exposes the engine's counters and trace-derived
	// histograms: Snapshot() for programmatic reads, ServeHTTP for an
	// expvar-compatible JSON endpoint.
	MetricsRegistry = metrics.Registry
	// HistogramSnapshot is a point-in-time copy of one histogram.
	HistogramSnapshot = metrics.HistogramSnapshot
)

// NewSlowQueryLog returns a TraceSink that writes traces at least
// threshold long to w as JSON lines; a zero threshold logs every trace.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return trace.NewSlowQueryLog(w, threshold)
}

// WithTracing makes every Evaluate run traced: each call builds the full
// span tree and per-query stats deltas, feeds the trace-derived
// histograms, and emits the trace to the engine's sinks. The trace itself
// is returned only by EvaluateTraced — plain Evaluate discards it after
// the sinks have seen it. Overhead is a few percent of wall time at the
// default batch size (bench/ reports it as trace.overhead_frac); without this
// option (and outside EvaluateTraced calls) evaluation pays only nil
// checks on the instrumentation points.
func WithTracing() Option {
	return func(e *Engine) {
		e.tracingOn = true
	}
}

// WithTraceSink registers a sink that receives every finished trace —
// from EvaluateTraced calls and, under WithTracing, from every Evaluate.
// Sinks run synchronously in the evaluating goroutine, in registration
// order; concurrent evaluations call Emit concurrently.
func WithTraceSink(s TraceSink) Option {
	return func(e *Engine) {
		if s != nil {
			e.sinks = append(e.sinks, s)
		}
	}
}

// EvaluateTraced is Evaluate plus a full execution trace: the span tree
// of the planned strategy (per-operator rows in/out, the paper-derived
// and System-R size estimates next to the actuals, shard fan-out, batch
// and spill activity, wall times) and the exact per-query deltas of the
// five engine stats families, isolated from concurrent evaluations by
// running against private counters. The trace is also emitted to the
// engine's sinks and feeds the metric histograms. On evaluation error the
// partial trace is still returned alongside the error.
func (e *Engine) EvaluateTraced(ctx context.Context, q *Query, db *Database) (*Relation, EvalStats, *Trace, error) {
	if st := e.pinEpoch(db); st != nil {
		defer e.unpinEpoch(st)
	}
	tr := trace.NewTracer(q.String())
	tr.SetRequestID(obs.RequestID(ctx))
	ps := tr.Stage(trace.KindPlan, "plan")
	p, hit, err := e.planForHit(q, db)
	if hit {
		ps.SetNote("plan cache hit")
	} else {
		ps.SetNote("plan cache miss")
	}
	ps.End()
	if err != nil {
		return nil, EvalStats{}, nil, err
	}
	epBefore := e.epochCounters()
	opts, pv := e.tracedOptions(tr)
	out, st, err := plan.ExecuteOpts(ctx, p, q, db, opts)
	pv.close()
	pv.mergeInto(e)
	t := tr.Finish()
	t.Deltas = tracedDeltas(hit, pv, epBefore, e.epochCounters())
	if err != nil {
		return nil, st, t, err
	}
	e.observeTrace(t, pv)
	for _, s := range e.sinks {
		s.Emit(t)
	}
	return out, st, t, nil
}

// ExplainAnalyze evaluates q and renders the annotated plan: the strategy
// header, the span tree with the paper's worst-case bound and the
// per-operator estimates next to the actual row counts, the stats deltas,
// and the planner's rationale. The first output line is deterministic
// ("strategy: <name>"); row counts and wall times vary run to run.
func (e *Engine) ExplainAnalyze(ctx context.Context, q *Query, db *Database) (string, error) {
	_, _, t, err := e.EvaluateTraced(ctx, q, db)
	if err != nil {
		return "", err
	}
	p, err := e.planFor(q, db)
	if err != nil {
		return "", err
	}
	return t.Render() + "rationale: " + p.Rationale + "\n", nil
}

// tracedPrivate carries one traced evaluation's private counter targets:
// the evaluation runs against these so its deltas are exact under
// concurrency, then folds them into the engine-wide counters.
type tracedPrivate struct {
	shardM *shard.Metrics
	batchM *batch.Metrics
	scope  *spill.Scope
}

// tracedOptions clones the engine's sharding options for one traced
// evaluation, swapping in private metrics, a fresh spill scope, and the
// tracer. The clone is never shared between evaluations.
func (e *Engine) tracedOptions(tr *trace.Tracer) (*shard.Options, *tracedPrivate) {
	o := *e.sharding
	pv := &tracedPrivate{shardM: &shard.Metrics{}, batchM: &batch.Metrics{}}
	o.Metrics = pv.shardM
	o.Batch = pv.batchM
	if e.spill != nil {
		pv.scope = spill.NewScope()
		o.Scope = pv.scope
	}
	o.Trace = tr
	return &o, pv
}

// close releases the evaluation's spill scope (discarding governed
// intermediate buffers); the scope's event counters stay readable.
func (pv *tracedPrivate) close() {
	pv.scope.Close()
}

// mergeInto folds the private counters into the engine-wide ones, so
// ShardStats and StreamStats see traced evaluations exactly like
// untraced ones.
func (pv *tracedPrivate) mergeInto(e *Engine) {
	pv.shardM.AddTo(e.sharding.Metrics)
	pv.batchM.AddTo(e.stream)
}

// epochCounterSnapshot is the cumulative epoch-lifecycle counters at one
// instant; traced evaluations diff two snapshots for the epoch family.
type epochCounterSnapshot struct {
	commits, retired, sweptBufs, sweptBytes, incMemos, rebuilt, compactions int64
}

func (e *Engine) epochCounters() epochCounterSnapshot {
	return epochCounterSnapshot{
		commits:     e.commits.Load(),
		retired:     e.retiredEps.Load(),
		sweptBufs:   e.sweptBufs.Load(),
		sweptBytes:  e.sweptBytes.Load(),
		incMemos:    e.incMemos.Load(),
		rebuilt:     e.rebuiltRels.Load(),
		compactions: e.compactions.Load(),
	}
}

// tracedDeltas assembles the per-query deltas of the five stats families.
// Cache, shard, stream and spill are exact (private counters or scope
// attribution); epoch is a snapshot diff of the engine-wide lifecycle
// counters, exact unless a commit lands mid-evaluation.
func tracedDeltas(hit bool, pv *tracedPrivate, before, after epochCounterSnapshot) []trace.FamilyDelta {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	sh := pv.shardM.Snapshot()
	st := pv.batchM.Snapshot()
	ev := pv.scope.Events()
	return []trace.FamilyDelta{
		{Family: "cache", Counters: []trace.Counter{
			{Name: "hits", Value: b2i(hit)},
			{Name: "misses", Value: b2i(!hit)},
		}},
		{Family: "shard", Counters: []trace.Counter{
			{Name: "sharded_ops", Value: sh.ShardedOps},
			{Name: "fallback_ops", Value: sh.FallbackOps},
			{Name: "reused_rows", Value: sh.ReusedRows},
			{Name: "exchanged_rows", Value: sh.ExchangedRows},
			{Name: "broadcast_ops", Value: sh.BroadcastOps},
			{Name: "skew_splits", Value: sh.SkewSplits},
			{Name: "dense_projections", Value: sh.DenseProjections},
		}},
		{Family: "stream", Counters: []trace.Counter{
			{Name: "batches", Value: st.BatchesProduced},
			{Name: "rows_streamed", Value: st.RowsStreamed},
			{Name: "buffered_fallbacks", Value: st.BufferedFallbacks},
			{Name: "bytes_never_materialized", Value: st.BytesNeverMaterialized},
		}},
		{Family: "spill", Counters: []trace.Counter{
			{Name: "evictions", Value: ev.Evictions},
			{Name: "reloads", Value: ev.Reloads},
			{Name: "pin_waits", Value: ev.PinWaits},
			{Name: "spilled_bytes", Value: ev.SpilledBytes},
		}},
		{Family: "epoch", Counters: []trace.Counter{
			{Name: "commits", Value: after.commits - before.commits},
			{Name: "retired_epochs", Value: after.retired - before.retired},
			{Name: "swept_buffers", Value: after.sweptBufs - before.sweptBufs},
			{Name: "swept_bytes", Value: after.sweptBytes - before.sweptBytes},
			{Name: "incremental_memos", Value: after.incMemos - before.incMemos},
			{Name: "rebuilt_relations", Value: after.rebuilt - before.rebuilt},
			{Name: "compactions", Value: after.compactions - before.compactions},
		}},
	}
}

// metricsState is the lazily-built registry plus the trace-derived
// histograms it owns.
type metricsState struct {
	reg        *metrics.Registry
	latency    *metrics.Histogram
	peakRows   *metrics.Histogram
	spillBytes *metrics.Histogram
}

// Metrics returns the engine's metric registry, building it on first
// call: a gauge per engine counter (every field of the five stats
// families plus cache size), and the trace-derived histograms
// query_latency_ns, query_peak_rows and query_spill_bytes. Histograms
// record traced evaluations only (EvaluateTraced, or every Evaluate
// under WithTracing). The registry implements http.Handler, serving the
// snapshot as expvar-compatible JSON.
func (e *Engine) Metrics() *MetricsRegistry {
	return e.metricsState().reg
}

// MetricsSnapshot samples every registered metric: counters as int64,
// histograms as HistogramSnapshot values.
func (e *Engine) MetricsSnapshot() map[string]any {
	return e.Metrics().Snapshot()
}

func (e *Engine) metricsState() *metricsState {
	if ms := e.metrics.Load(); ms != nil {
		return ms
	}
	reg := metrics.NewRegistry()
	ms := &metricsState{
		reg:        reg,
		latency:    reg.NewHistogram("query_latency_ns"),
		peakRows:   reg.NewHistogram("query_peak_rows"),
		spillBytes: reg.NewHistogram("query_spill_bytes"),
	}
	reg.Gauge("cache_hits", func() int64 { h, _ := e.CacheStats(); return int64(h) })
	reg.Gauge("cache_misses", func() int64 { _, m := e.CacheStats(); return int64(m) })
	reg.Gauge("cache_size", func() int64 { return int64(e.CacheSize()) })
	reg.Gauge("shard_sharded_ops", func() int64 { return e.ShardStats().ShardedOps })
	reg.Gauge("shard_fallback_ops", func() int64 { return e.ShardStats().FallbackOps })
	reg.Gauge("shard_reused_rows", func() int64 { return e.ShardStats().ReusedRows })
	reg.Gauge("shard_exchanged_rows", func() int64 { return e.ShardStats().ExchangedRows })
	reg.Gauge("shard_broadcast_ops", func() int64 { return e.ShardStats().BroadcastOps })
	reg.Gauge("shard_skew_splits", func() int64 { return e.ShardStats().SkewSplits })
	reg.Gauge("shard_dense_projections", func() int64 { return e.ShardStats().DenseProjections })
	reg.Gauge("stream_batches", func() int64 { return e.StreamStats().BatchesProduced })
	reg.Gauge("stream_rows", func() int64 { return e.StreamStats().RowsStreamed })
	reg.Gauge("stream_buffered_fallbacks", func() int64 { return e.StreamStats().BufferedFallbacks })
	reg.Gauge("stream_bytes_never_materialized", func() int64 { return e.StreamStats().BytesNeverMaterialized })
	reg.Gauge("spill_spilled_shards", func() int64 { return e.SpillStats().SpilledShards })
	reg.Gauge("spill_reloaded_shards", func() int64 { return e.SpillStats().ReloadedShards })
	reg.Gauge("spill_bytes_on_disk", func() int64 { return e.SpillStats().BytesOnDisk })
	reg.Gauge("spill_evictions", func() int64 { return e.SpillStats().Evictions })
	reg.Gauge("spill_pin_waits", func() int64 { return e.SpillStats().PinWaits })
	reg.Gauge("spill_resident_bytes", func() int64 { return e.SpillStats().ResidentBytes })
	reg.Gauge("spill_peak_resident_bytes", func() int64 { return e.SpillStats().PeakResidentBytes })
	reg.Gauge("epoch_live", func() int64 { return int64(e.EpochStats().LiveEpoch) })
	reg.Gauge("epoch_active", func() int64 { return int64(e.EpochStats().ActiveEpochs) })
	reg.Gauge("epoch_pinned_readers", func() int64 { return e.EpochStats().PinnedReaders })
	reg.Gauge("epoch_commits", func() int64 { return e.commits.Load() })
	reg.Gauge("epoch_retired", func() int64 { return e.retiredEps.Load() })
	reg.Gauge("epoch_swept_buffers", func() int64 { return e.sweptBufs.Load() })
	reg.Gauge("epoch_swept_bytes", func() int64 { return e.sweptBytes.Load() })
	reg.Gauge("epoch_incremental_memos", func() int64 { return e.incMemos.Load() })
	reg.Gauge("epoch_rebuilt_relations", func() int64 { return e.rebuiltRels.Load() })
	reg.Gauge("epoch_compactions", func() int64 { return e.compactions.Load() })
	reg.Gauge("epoch_dict_len", func() int64 { return int64(e.dict.Load().Len()) })
	if e.metrics.CompareAndSwap(nil, ms) {
		return ms
	}
	return e.metrics.Load()
}

// observeTrace feeds the trace-derived histograms; a no-op until Metrics
// has been called once.
func (e *Engine) observeTrace(t *Trace, pv *tracedPrivate) {
	ms := e.metrics.Load()
	if ms == nil || t == nil {
		return
	}
	ms.latency.Observe(int64(t.Duration))
	ms.peakRows.Observe(peakRows(t.Root))
	ms.spillBytes.Observe(pv.scope.Events().SpilledBytes)
}

// peakRows is the largest per-span output row count in the tree — the
// observed peak intermediate size the paper's bounds cap.
func peakRows(s *TraceSpan) int64 {
	if s == nil {
		return 0
	}
	peak := s.RowsOut()
	for _, c := range s.Children() {
		if p := peakRows(c); p > peak {
			peak = p
		}
	}
	return peak
}
