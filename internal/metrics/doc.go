// Package metrics is the engine's metric registry, the one place every
// counter, gauge and histogram is declared and read.
//
// A counter is declared once, in the layer that counts it, as a counter of
// that layer's family (package counter, a leaf every layer can import):
//
//	var (
//		Counters   = counter.NewFamily("shard")
//		shardedOps = Counters.Counter("sharded_ops", "operators that ran in more than one part")
//	)
//
// A counter.Set of the family holds one atomic cell per counter, and code
// counts with m.Add(shardedOps, 1) — a nil *Set is a no-op, so operators
// count unconditionally. Registering the Set (Registry.Counters) names
// each cell "<family>_<counter>" (here shard_sharded_ops) with kind
// KindCounter. Everything generic follows from that one declaration:
// Registry.Reset zeroes every counter, Set.AddTo merges a traced
// evaluation's private set into the shared one, Set.Each lists a set's
// counters, under the same names, for a trace's deltas, and the kind picks
// the Prometheus TYPE line.
//
// A gauge (KindGauge) is a callback sampled at read time for present
// state — resident bytes, queue depth, cache entries — that may fall as
// well as rise and that Reset leaves alone. A histogram (KindHistogram)
// is lock-free and power-of-two bucketed: counts, sums and extremes are
// exact; P50/P90/P99 are bucketed to the nearest power of two, plenty for
// dashboards and regression gates.
//
// The Registry exposes everything two ways: Snapshot returns a plain
// map[string]any for programmatic consumers, and ServeHTTP implements
// http.Handler writing the same data as a single JSON object — the shape
// expvar serves on /debug/vars, so existing scrapers work unchanged:
//
//	http.Handle("/debug/cqbound", engine.Metrics())
package metrics
