package cqbound

// Observability: per-evaluation tracing (EvaluateTraced, ExplainAnalyze,
// trace sinks) and the typed metric registry (Metrics, MetricsSnapshot).
// Tracing is opt-in per call or engine-wide via WithTracing; an untraced
// evaluation pays only nil checks on the instrumentation points.

import (
	"context"
	"io"
	"time"

	"cqbound/internal/metrics"
	"cqbound/internal/metrics/counter"
	"cqbound/internal/spill"
	"cqbound/internal/trace"
)

// Tracing types (internal/trace).
type (
	// Trace is one finished evaluation's span tree plus the per-query
	// deltas of the engine's counters, keyed by registry name.
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
	// MetricsRegistry exposes the engine's counters, gauges and
	// trace-derived histograms: Snapshot() for programmatic reads,
	// ServeHTTP for an expvar-compatible JSON endpoint.
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
// engine's counter families (cache, shard, stream, spill, epoch; counter
// names as in the registry), isolated from concurrent evaluations by
// running against private counters. The trace is also emitted to the
// engine's sinks and feeds the metric histograms. On evaluation error the
// partial trace is still returned alongside the error.
func (e *Engine) EvaluateTraced(ctx context.Context, q *Query, db *Database) (*Relation, EvalStats, *Trace, error) {
	out, st, _, t, err := e.evaluate(ctx, q, db, nil, true)
	return out, st, t, err
}

// ExplainAnalyze evaluates q and renders the annotated plan: the strategy
// header, the span tree with the paper's worst-case bound and the
// per-operator estimates next to the actual row counts, the stats deltas,
// and the rationale of the plan the run used. The first output line is
// deterministic ("strategy: <name>"); row counts and wall times vary run
// to run.
func (e *Engine) ExplainAnalyze(ctx context.Context, q *Query, db *Database) (string, error) {
	_, _, p, t, err := e.evaluate(ctx, q, db, nil, true)
	if err != nil {
		return "", err
	}
	return t.Render() + "rationale: " + p.Rationale + "\n", nil
}

// counterDeltas maps the registry name of every nonzero counter in sets
// to its value. The epoch set is a diff of the engine-wide lifecycle
// counters, exact unless a commit lands mid-evaluation; the others are
// the evaluation's own.
func counterDeltas(sets ...*counter.Set) map[string]int64 {
	d := make(map[string]int64)
	for _, s := range sets {
		s.Each(func(name string, v int64) {
			if v != 0 {
				d[name] = v
			}
		})
	}
	return d
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
// call: every engine counter (families cache, shard, stream, spill,
// epoch), the gauges of present state, and the trace-derived histograms
// query_latency_ns, query_peak_rows and query_spill_bytes. Histograms
// record traced evaluations only (EvaluateTraced, or every Evaluate under
// WithTracing). The registry implements http.Handler, serving the
// snapshot as expvar-compatible JSON.
func (e *Engine) Metrics() *MetricsRegistry {
	return e.metricsState().reg
}

// MetricsSnapshot samples every registered metric — the one way to read a
// counter: counters and gauges as int64, histograms as HistogramSnapshot
// values.
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
		latency:    reg.NewHistogram("query_latency_ns", "wall time of traced evaluations"),
		peakRows:   reg.NewHistogram("query_peak_rows", "largest per-operator output of traced evaluations"),
		spillBytes: reg.NewHistogram("query_spill_bytes", "bytes traced evaluations parked to disk"),
	}
	reg.Counters(e.cache)
	reg.Gauge("cache_size", "distinct queries with a cached analysis or plan", func() int64 { return int64(e.CacheSize()) })
	reg.Counters(e.shard)
	reg.Counters(e.stream)
	e.spill.Register(reg)
	reg.Counters(e.epoch)
	epochGauge := func(name, help string, read func() int64) {
		reg.Gauge(name, help, func() int64 {
			e.epochMu.Lock()
			defer e.epochMu.Unlock()
			return read()
		})
	}
	epochGauge("epoch_live", "the most recently committed epoch", func() int64 { return int64(e.live.epoch) })
	epochGauge("epoch_active", "epochs not yet reclaimed: the live one plus any still pinned",
		func() int64 { return int64(len(e.epochs)) })
	epochGauge("epoch_pinned_readers", "pins held on active epochs", func() int64 {
		var n int64
		for _, st := range e.epochs {
			n += st.pins.Load()
		}
		return n
	})
	reg.Gauge("epoch_dict_len", "entries in the engine's dictionary", func() int64 { return int64(e.dict.Load().Len()) })
	if e.metrics.CompareAndSwap(nil, ms) {
		return ms
	}
	return e.metrics.Load()
}

// observeTrace feeds the trace-derived histograms; a no-op until Metrics
// has been called once.
func (e *Engine) observeTrace(t *Trace, spilled *counter.Set) {
	ms := e.metrics.Load()
	if ms == nil || t == nil {
		return
	}
	ms.latency.Observe(int64(t.Duration))
	ms.peakRows.Observe(peakRows(t.Root))
	ms.spillBytes.Observe(spilled.Load(spill.SpilledBytes))
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
