package main

// The metric catalogue: every name the benchmark can emit, with its unit
// and direction. BENCHMARK.json lists the same names (bench_test.go keeps
// the two in step); the regression bounds live only there.

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// The workload names are final: later issues cite them.
const (
	wSmallShapes = "small-shapes"
	wScaled      = "scaled-joins"
	wBudgeted    = "scaled-joins-budgeted"
	wIngestRead  = "ingest-read"
	wServeMix    = "serve-mix"
)

var workloadNames = []string{wSmallShapes, wScaled, wBudgeted, wIngestRead, wServeMix}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from the timed run (tracing off).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb_per_op", "MiB", "lower"},
}

// The layers spans and per-layer metrics are attributed to: the
// repository's modules, plus the client side of the loopback connection
// (http) and the benchmark's own glue (bench).
var layers = []string{"cq", "plan", "engine", "eval", "relation", "shard", "batch", "spill", "txn", "serve", "http", "bench"}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric that does not apply to a workload reads 0; a registry gauge the
// program no longer exports reads -1 (absent), so that a later change that
// renames a counter shows up here and not as a build failure.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cq.parse_us", "us", "lower"},
		{"core.analyze_cold_ms", "ms", "lower"},
		{"engine.plan_cache_hit_frac", "frac", "higher"},
		{"engine.overhead_frac", "frac", "lower"},
		{"plan.choose_us", "us", "lower"},
		{"plan.bound_rows_us", "us", "lower"},
		{"plan.bound_slack_log2", "log2", "lower"},
		{"plan.oracle_slack_log2", "log2", "lower"},
		{"plan.bound_exceeded_ops", "count", "lower"},
		{"plan.planned_over_best", "ratio", "lower"},
		{"eval.naive_ms", "ms", "lower"},
		{"eval.joinproject_ms", "ms", "lower"},
		{"eval.yannakakis_ms", "ms", "lower"},
		{"eval.genericjoin_ms", "ms", "lower"},
		{"eval.max_intermediate_rows", "count", "lower"},
		{"relation.index_build_ms", "ms", "lower"},
		{"relation.hashjoin_ms", "ms", "lower"},
		{"relation.semijoin_ms", "ms", "lower"},
		{"relation.intern_ns", "ns", "lower"},
		{"shard.partition_ms", "ms", "lower"},
		{"shard.sharded_ops", "count", "higher"},
		{"shard.fallback_ops", "count", "lower"},
		{"shard.exchanged_rows", "count", "lower"},
		{"shard.reused_rows", "count", "higher"},
		{"shard.broadcast_ops", "count", "higher"},
		{"shard.skew_splits", "count", "higher"},
		{"shard.reuse_frac", "frac", "higher"},
		{"shard.speedup_vs_p1", "ratio", "higher"},
		{"batch.pipeline_ms", "ms", "lower"},
		{"batch.batches", "count", "lower"},
		{"batch.rows_streamed", "count", "lower"},
		{"batch.buffered_fallbacks", "count", "lower"},
		{"batch.bytes_never_materialized", "bytes", "higher"},
		{"spill.roundtrip_ms", "ms", "lower"},
		{"spill.evictions", "count", "lower"},
		{"spill.reloaded_shards", "count", "lower"},
		{"spill.pin_waits", "count", "lower"},
		{"spill.bytes_on_disk", "bytes", "lower"},
		{"spill.peak_resident_bytes", "bytes", "lower"},
		{"spill.resident_over_budget", "ratio", "lower"},
		{"spill.reload_per_eviction", "ratio", "lower"},
		{"spill.slowdown_vs_unbudgeted", "ratio", "lower"},
		{"txn.stage_us", "us", "lower"},
		{"txn.commit_apply_ms", "ms", "lower"},
		{"txn.snapshot_us", "us", "lower"},
		{"txn.incremental_memos", "count", "higher"},
		{"txn.rebuilt_relations", "count", "lower"},
		{"txn.swept_buffers", "count", "higher"},
		{"txn.retired_epochs", "count", "higher"},
		{"txn.refresh_vs_rebuild", "ratio", "lower"},
		{"txn.commit_p50_ms", "ms", "lower"},
		{"txn.commit_p95_ms", "ms", "lower"},
		{"txn.ingest_rows_per_s", "1/s", "higher"},
		{"txn.read_after_commit_p50_ms", "ms", "lower"},
		{"serve.cache_hit_frac", "frac", "higher"},
		{"serve.cache_invalidations", "count", "lower"},
		{"serve.admission_queued", "count", "lower"},
		{"serve.admission_rejected", "count", "lower"},
		{"serve.clamped", "count", "lower"},
		{"serve.cache_get_us", "us", "lower"},
		{"serve.admit_us", "us", "lower"},
		{"serve.handler_miss_ms", "ms", "lower"},
		{"serve.encode_frac", "frac", "lower"},
		{"serve.http_overhead_ms", "ms", "lower"},
	}
	for _, k := range serveKinds {
		defs = append(defs, metricDef{"serve." + k.name + "_p50_ms", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"serve.latency_p99_ms", "ms", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
		metricDef{"bench.trace_overhead_frac", "frac", "lower"},
		metricDef{"bench.intent_ok", "bool", "higher"},
		metricDef{"bench.op_tail_ms", "ms", "lower"},
		metricDef{"bench.op_tail_pct", "%", "higher"},
		metricDef{"bench.samples", "count", "higher"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_frac", "frac", "lower"})
	}
	return defs
}()

// metricValue is one reported number, in the shape the result line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// absent marks a registry gauge the program does not export.
const absent = -1

// fill returns the full metric map for defs: every name present, values
// taken from vals and 0 where a workload has nothing to report.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
