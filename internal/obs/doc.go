// Package obs is the serving-path observability layer: the pieces that
// make one HTTP request to the cqserve front-end explainable after the
// fact and the serving trajectory watchable while it happens.
//
// Correlation. Every request carries a request ID — accepted from an
// X-Request-ID header or a W3C traceparent, generated otherwise — held in
// a RequestState that travels the request's context. The same ID appears
// in the response header, the 429/error JSON bodies, the sampled access
// log, the slow-query log, the rendered trace and /debug/requests, so any
// shed, clamp, timeout or slow query is joinable to its full span tree.
//
// One record. Request is the only per-request record: /debug/requests
// (Inflight.Snapshot) lists it while the handler runs and the access log
// writes its last snapshot, under the same JSON keys. RequestState guards
// it with a mutex, because the in-flight registry snapshots a request
// from other goroutines while its handler still runs (Update).
//
// Exposition. WriteProm renders metric families in the Prometheus text
// format: gauges and counters as single samples, power-of-two histograms
// as cumulative _bucket/_sum/_count triples. Names and label values go
// through SanitizeName/ValidName so a scraper never sees an invalid
// family. Serving rates and latency quantiles are not computed here: the
// server keeps cumulative registry counters and histograms
// (serve_requests, serve_latency_ns, serve_queue_wait_ns, ...) and a
// scraper's rate() turns them into windowed series. RetryAfterSeconds
// prices a 429's Retry-After from the queue-wait p99.
//
// Calibration. Calibration records, per (strategy, query shape), the
// log₂-ratio error of the paper's worst-case bound and of the System-R
// estimate against the actual output cardinality — the repo's first
// empirical read on how tight the Thm 4.4 / AGM bounds run in practice,
// and the estimate-error history a cost-based planner will train on.
//
// Every exported type is nil-receiver safe on its hot-path methods: a
// server built without observability keeps nil components and pays only
// the nil checks.
package obs
