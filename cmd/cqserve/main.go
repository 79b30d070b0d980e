// Command cqserve runs the cqbound query service: one Engine behind the
// HTTP front-end of the root package's Server — /query, /commit,
// /explain, /metrics and /snapshot — with per-request deadlines,
// bound-based admission control over the spill governor's budget, and an
// epoch-keyed result cache.
//
// The server starts empty; clients create relations and load data through
// POST /commit and evaluate with GET /query?q=... (add &trace=1 for the
// full execution trace, pin epochs via POST /snapshot for multi-query
// consistency). Admission rejects with 429 once the queue is full;
// watch /metrics (the serve_admission_* family) to see it work.
//
// The serving path is observable out of the box (ARCHITECTURE §12):
// responses carry X-Request-ID, /metrics?format=prom serves Prometheus
// text, /healthz and /readyz answer probes, /debug/pprof profiles the
// process, /debug/requests lists in-flight queries, and /calibration
// reports how the paper's admission bounds track actual cardinalities.
// -access streams the sampled JSON access log to stderr; -no-obs turns
// the whole layer off.
//
// Usage:
//
//	cqserve [-addr :8080] [-shards N] [-shard-threshold N]
//	        [-membudget BYTES] [-spilldir DIR]
//	        [-admission BYTES] [-queue N] [-cache N]
//	        [-timeout D] [-slow D] [-trace]
//	        [-access] [-access-sample N] [-no-obs]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	cqbound "cqbound"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "partition count for sharded execution (0 = GOMAXPROCS)")
	shardThreshold := flag.Int("shard-threshold", 1024, "row threshold below which operators stay single-shard")
	membudget := flag.Int64("membudget", 0, "spill governor budget in bytes (0 = unlimited)")
	spilldir := flag.String("spilldir", "", "spill directory (default: system temp)")
	admission := flag.Int64("admission", 0, "admission budget in bytes (0 = inherit membudget, or 64MiB)")
	queue := flag.Int("queue", 16, "admission queue depth before 429s")
	cache := flag.Int("cache", 256, "result cache entries (0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	slow := flag.Duration("slow", 0, "slow-query log threshold on stderr (0 disables)")
	traceAll := flag.Bool("trace", false, "trace every evaluation (feeds histograms and the slow-query log)")
	access := flag.Bool("access", false, "write the sampled JSON access log to stderr")
	accessSample := flag.Int("access-sample", 10, "log one in N successful requests (non-200s always log)")
	noObs := flag.Bool("no-obs", false, "disable serving-path observability (correlation, windows, /debug, /calibration)")
	flag.Parse()

	var opts []cqbound.Option
	opts = append(opts, cqbound.WithSharding(*shardThreshold, *shards))
	if *membudget > 0 {
		opts = append(opts, cqbound.WithMemoryBudget(*membudget))
	}
	if *spilldir != "" {
		opts = append(opts, cqbound.WithSpillDir(*spilldir))
	}
	if *slow > 0 {
		opts = append(opts, cqbound.WithTracing(), cqbound.WithTraceSink(cqbound.NewSlowQueryLog(os.Stderr, *slow)))
	} else if *traceAll {
		opts = append(opts, cqbound.WithTracing())
	}
	eng := cqbound.NewEngine(opts...)
	defer eng.Close()

	srvOpts := []cqbound.ServerOption{
		cqbound.WithRequestTimeout(*timeout),
		cqbound.WithAdmissionQueue(*queue),
		cqbound.WithResultCache(*cache),
	}
	if *admission > 0 {
		srvOpts = append(srvOpts, cqbound.WithAdmissionBudget(*admission))
	}
	if *noObs {
		srvOpts = append(srvOpts, cqbound.WithoutObservability())
	} else if *access {
		srvOpts = append(srvOpts, cqbound.WithAccessLog(os.Stderr, *accessSample))
	}
	srv := cqbound.NewServer(eng, srvOpts...)
	defer srv.Close()

	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cqserve: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "cqserve: %v\n", err)
		os.Exit(1)
	case <-sig:
		fmt.Fprintln(os.Stderr, "cqserve: shutting down")
		hs.Close()
	}
}
