// Command cqbench runs the experiment harness that regenerates every
// figure, worked example, and quantitative theorem of the paper (see the
// index in DESIGN.md §3).
//
// With -planbench it instead benchmarks the bound-driven query planner
// against each fixed evaluation strategy on canonical workloads, printing a
// table or (with -json) a machine-readable baseline for future perf work.
//
// With -baseline FILE the -planbench run additionally compares itself
// against a checked-in JSON baseline and exits non-zero when any workload
// regresses by more than the threshold (default 3x) — the CI guard against
// pathological performance regressions, generous enough not to flake on
// shared runners.
//
// With -shardbench it compares partition-parallel (internal/shard) against
// single-shard execution of the same strategy on the scaled workloads —
// the sweep behind BENCH_sharded.json — and reports, per query, how the
// exchange router behaved: operators sharded vs fallen back, rows reused
// in place vs repartitioned, broadcasts and skew splits. -shards N sets
// the partition count for both -shardbench and the planned-sharded rows of
// -planbench; -skew F sets the hot-shard split fraction; -membudget N
// runs the sharded side under an N-byte resident-set budget (forced
// spilling) and reports the governor's eviction/reload counters.
//
// With -spillbench it sweeps memory budgets over the scaled workloads —
// unlimited, then 1/2 and 1/4 of the unlimited run's peak resident shard
// bytes (or a single -membudget override) — and reports the wall-clock
// price and eviction/reload traffic of each cap. The recorded document
// lives in BENCH_spill.json.
//
// With -tracebench it prices the observability layer on the scaled
// workloads: each runs on a plain engine and on one with WithTracing
// (full span tree, per-query stats deltas, sink emission per Evaluate)
// and the report records the wall-clock overhead, targeted at <=3% at the
// default batch size. -tracegate F fails the run when a star or path
// workload exceeds the fraction F. The recorded document lives in
// BENCH_trace.json.
//
// With -ingestbench it measures the transactional write path on the
// scaled workloads: delta batches committed through the epoch-based Txn
// API while a concurrent reader pins snapshots — batch-apply throughput
// (memo maintenance included) and the incremental-vs-rebuild cost of the
// first post-ingest evaluation. The recorded document lives in
// BENCH_ingest.json.
//
// Usage:
//
//	cqbench -list
//	cqbench -experiment E7
//	cqbench -all [-markdown]
//	cqbench -planbench [-json] [-shards N] [-baseline BENCH_baseline.json [-threshold 3]]
//	cqbench -shardbench [-json] [-shards N] [-skew F] [-membudget N]
//	cqbench -spillbench [-json] [-shards N] [-membudget N]
//	cqbench -tracebench [-json] [-shards N] [-tracegate F]
//	cqbench -ingestbench [-json] [-shards N] [-membudget N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cqbound/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids")
	exp := flag.String("experiment", "", "run a single experiment (E1..E19)")
	all := flag.Bool("all", false, "run every experiment")
	markdown := flag.Bool("markdown", false, "emit results as Markdown tables")
	planbench := flag.Bool("planbench", false, "benchmark planned vs fixed evaluation strategies")
	shardbench := flag.Bool("shardbench", false, "benchmark sharded vs single-shard execution on scaled workloads")
	spillbench := flag.Bool("spillbench", false, "sweep memory budgets (unlimited vs 1/2 vs 1/4 of peak resident bytes) over the scaled workloads")
	tracebench := flag.Bool("tracebench", false, "measure tracing overhead (WithTracing vs plain) on the scaled workloads")
	tracegate := flag.Float64("tracegate", 0, "with -tracebench, fail when a star/path workload's tracing overhead exceeds this fraction (0 disables)")
	ingestbench := flag.Bool("ingestbench", false, "measure transactional batch-apply throughput and incremental-vs-rebuild memo refresh on the scaled workloads")
	shards := flag.Int("shards", 0, "partition count for sharded runs (0 = default 16)")
	skew := flag.Float64("skew", 0, "hot-shard split fraction for sharded runs (0 = default 0.25, negative disables)")
	membudget := flag.Int64("membudget", 0, "resident-set budget in bytes for sharded/spill runs (0 = unlimited; with -spillbench, overrides the derived sweep)")
	jsonOut := flag.Bool("json", false, "emit -planbench/-shardbench results as JSON")
	baseline := flag.String("baseline", "", "compare -planbench against this JSON baseline and fail on regression")
	threshold := flag.Float64("threshold", 3.0, "regression factor tolerated against -baseline")
	flag.Parse()

	// The default partition count is fixed (not GOMAXPROCS) so recorded
	// baselines compare like with like across machines; -shards overrides
	// for manual sweeps.
	if *shards <= 0 {
		*shards = 16
	}

	switch {
	case *ingestbench:
		printIngestBench(runIngestBench(*shards, *membudget), *jsonOut)
	case *tracebench:
		rep := runTraceBench(*shards)
		printTraceBench(rep, *jsonOut)
		if *tracegate > 0 {
			if err := checkTraceGate(rep, *tracegate); err != nil {
				fmt.Fprintln(os.Stderr, "cqbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "cqbench: tracing overhead within the %.0f%% gate\n", *tracegate*100)
		}
	case *spillbench:
		printSpillBench(runSpillBench(*shards, *membudget), *jsonOut)
	case *shardbench:
		printShardBench(runShardBench(*shards, *skew, *membudget), *jsonOut)
	case *planbench:
		report := runPlanBench(*jsonOut, *shards)
		if *baseline != "" {
			if err := checkBaseline(report, *baseline, *threshold); err != nil {
				fmt.Fprintln(os.Stderr, "cqbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "cqbench: within %.1fx of baseline %s\n", *threshold, *baseline)
		}
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *exp != "":
		run(*exp, *markdown)
	case *all:
		failures := 0
		for _, id := range experiments.IDs() {
			failures += run(id, *markdown)
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "cqbench: %d rows diverged from the paper\n", failures)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func run(id string, markdown bool) int {
	rep, err := experiments.Run(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqbench:", err)
		os.Exit(1)
	}
	if markdown {
		printMarkdown(rep)
	} else {
		fmt.Println(rep)
	}
	return len(rep.Failed())
}

func printMarkdown(rep *experiments.Report) {
	fmt.Printf("### %s — %s (%s)\n\n", rep.ID, rep.Title, rep.Artifact)
	fmt.Println("| workload | paper | measured | ok |")
	fmt.Println("|---|---|---|---|")
	for _, row := range rep.Rows {
		ok := "yes"
		if !row.OK {
			ok = "**NO**"
		}
		fmt.Printf("| %s | %s | %s | %s |\n",
			escape(row.Name), escape(row.Paper), escape(row.Measured), ok)
	}
	fmt.Println()
}

func escape(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
