// Command bench is the repository's benchmark: five workloads over the
// engine, the epoch store and cqserve, each verified against references
// computed by a different path and against the paper's size bound, with
// end-to-end metrics from a timed run (tracing off) and per-layer metrics
// plus a span file from a traced run. BENCHMARK.json at the repository
// root names the workloads, the metrics and their regression bounds;
// README.md in this directory says what each is for.
//
// Usage, from the repository root:
//
//	bash bench/run.sh                                  every workload, timed then traced
//	bash bench/run.sh -workload NAME                   one workload, timed then traced
//	bash bench/run.sh -quick                           tiny inputs, seconds in total
//	bash bench/run.sh -check                           the full set twice; exit 1 if they disagree
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	                                                   one run, result line last (the driver's form)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
)

const defaultSeed = 20260925

func main() {
	workload := flag.String("workload", "", "run only this workload")
	seed := flag.Int64("seed", defaultSeed, "seed of every generated input and request sequence")
	secs := flag.Float64("seconds", 0, "measured time per run (default: run_seconds of BENCHMARK.json; 0.5 under -quick)")
	trace := flag.Int("trace", 0, "with -workload: 0 runs timed (end-to-end metrics), 1 runs traced (per-layer metrics, span file)")
	quick := flag.Bool("quick", false, "tiny inputs and run times; outputs still verified")
	check := flag.Bool("check", false, "run the set twice and fail if the two disagree beyond the bounds")
	asJSON := flag.Bool("json", false, "print the suite's results as one JSON document")
	setupOnly := flag.Bool("setup-only", false, "with -workload: set the workload up once, print the seconds it took and exit (a timed run starts itself this way for each further set-up it measures)")
	out := flag.String("out", "", "directory for trace files and spill segments (default: out/ beside the benchmark)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	traceSet := false
	flag.Visit(func(f *flag.Flag) { traceSet = traceSet || f.Name == "trace" })

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	cfg := config{
		Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *trace == 1, Quick: *quick,
		OutDir: *out, Cores: min(runtime.NumCPU(), 4),
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = float64(spec.RunSeconds)
		if cfg.Quick {
			cfg.Seconds = 0.5
		}
	}
	if cfg.OutDir == "" {
		cfg.OutDir = spec.outDir()
	}
	ctx := context.Background()

	switch {
	case *check:
		os.Exit(runCheck(cfg, spec))
	case *workload != "" && *setupOnly:
		s, err := setupOnce(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
	case *workload != "" && traceSet:
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace is 0 or 1"))
		}
		rep, head, err := runWorkload(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		printRun(cfg, rep, head)
	default:
		os.Exit(runSuite(cfg, *asJSON))
	}
}

// printRun prints one run for people — the configuration, then every
// metric by name with its unit — and the result line for the driver last.
func printRun(cfg config, rep *report, head map[string]any) {
	keys := make([]string, 0, len(head))
	for k := range head {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(head[k]) // header values are plain data; a failure prints null
		fmt.Printf("# %s = %s\n", k, b)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	printMetrics("", defs, rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printMetrics prints the metrics of defs by name with value and unit.
func printMetrics(indent string, defs []metricDef, metrics map[string]metricValue) {
	for _, d := range defs {
		m := metrics[d.Name]
		fmt.Printf("%s%-34s %16.6g %s\n", indent, d.Name, m.Value, m.Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
