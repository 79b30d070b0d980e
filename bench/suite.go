package main

// The suite: every workload timed (tracing off) and then traced, each run
// in a fresh child process of this binary so that set-up time and peak
// RSS are the workload's own; and -check, which runs the suite twice and
// compares.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runRecord is one child run as the suite keeps it.
type runRecord struct {
	Report report         `json:"result"`
	Header map[string]any `json:"config"`
	WallS  float64        `json:"wall_s"`
}

// workloadRecord is one workload's timed and traced run.
type workloadRecord struct {
	Timed  runRecord `json:"timed"`
	Traced runRecord `json:"traced"`
}

// suiteDoc is what -json prints. Claim is null by construction: the
// benchmark is the instrument later changes are judged by and claims no
// gain itself.
type suiteDoc struct {
	Claim     *string                    `json:"claim"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Quick     bool                       `json:"quick"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// child runs one workload once in a child process and parses its output.
func child(cfg config, workload string, trace int) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-out", cfg.OutDir}
	if cfg.Quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	rec := runRecord{Header: map[string]any{}, WallS: time.Since(t0).Seconds()}
	if err != nil {
		return rec, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = "); ok && strings.HasPrefix(line, "# ") {
			var val any
			if json.Unmarshal([]byte(v), &val) == nil {
				rec.Header[k] = val
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.Report); err != nil {
		return rec, fmt.Errorf("%s (trace %d): no result line: %w", workload, trace, err)
	}
	return rec, nil
}

// suiteWorkloads is the workloads a suite run covers: all, or the one
// -workload names.
func suiteWorkloads(cfg config) ([]string, error) {
	if cfg.Workload == "" {
		return workloadNames, nil
	}
	if _, ok := setups[cfg.Workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloadNames, ", "))
	}
	return []string{cfg.Workload}, nil
}

// collect runs the suite once.
func collect(cfg config) (*suiteDoc, error) {
	names, err := suiteWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	doc := &suiteDoc{Seed: cfg.Seed, Seconds: cfg.Seconds, Quick: cfg.Quick, Workloads: map[string]*workloadRecord{}}
	for _, w := range names {
		fmt.Fprintf(os.Stderr, "bench: %s: timed run\n", w)
		timed, err := child(cfg, w, 0)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s: traced run\n", w)
		traced, err := child(cfg, w, 1)
		if err != nil {
			return nil, err
		}
		doc.Workloads[w] = &workloadRecord{Timed: timed, Traced: traced}
	}
	return doc, nil
}

// failedRuns counts the runs of a suite that had a failed operation.
func (d *suiteDoc) failedRuns() int {
	n := 0
	for _, w := range d.Workloads {
		for _, r := range []runRecord{w.Timed, w.Traced} {
			if !r.Report.Correct {
				n++
			}
		}
	}
	return n
}

func runSuite(cfg config, asJSON bool) int {
	doc, err := collect(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else {
		printSuite(doc)
	}
	if n := doc.failedRuns(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d run(s) had failed operations\n", n)
		return 1
	}
	return 0
}

// printSuite prints every metric of every workload by name with its unit.
func printSuite(doc *suiteDoc) {
	for _, w := range workloadNames {
		rec := doc.Workloads[w]
		if rec == nil {
			continue
		}
		h := rec.Timed.Header
		fmt.Printf("== %s  seed=%d gomaxprocs=%v C=%v P=%v B=%v seconds=%v ops=%v samples=%v setups=%v (timed %.1fs, traced %.1fs)\n",
			w, doc.Seed, h["gomaxprocs"], h["C"], h["P"], h["B"], h["seconds"], h["ops"], h["samples"], h["setups"],
			rec.Timed.WallS, rec.Traced.WallS)
		fmt.Printf("   op: %v\n", h["op"])
		fmt.Printf("   failed_frac %d/%d timed, %d/%d traced\n", rec.Timed.Report.Failed, rec.Timed.Report.Attempted,
			rec.Traced.Report.Failed, rec.Traced.Report.Attempted)
		printMetrics("   ", endToEnd, rec.Timed.Report.Metrics)
		printMetrics("   ", perLayer, rec.Traced.Report.Metrics)
	}
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same code on the library workloads: result sizes, bound
// slack, and the routing decisions of a single caller.
var exactCounts = []string{"eval.max_intermediate_rows", "plan.bound_slack_log2", "plan.oracle_slack_log2", "plan.bound_exceeded_ops",
	"shard.sharded_ops", "shard.fallback_ops", "shard.exchanged_rows", "shard.reused_rows", "shard.broadcast_ops", "shard.skew_splits"}

var exactWorkloads = []string{wSmallShapes, wScaled, wBudgeted}

// runCheck runs the full set twice on the same binary and fails if any
// end-to-end metric differs by more than its bound or any exact count
// differs at all. The table it prints is the evidence for each bound.
func runCheck(cfg config, spec *benchSpec) int {
	var docs [2]*suiteDoc
	for i := range docs {
		fmt.Fprintf(os.Stderr, "bench: check pass %d of 2\n", i+1)
		d, err := collect(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		docs[i] = d
	}
	bad := docs[0].failedRuns() + docs[1].failedRuns()
	names, _ := suiteWorkloads(cfg)
	fmt.Printf("%-22s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "pass 1", "pass 2", "diff", "bound", "")
	for _, w := range names {
		a, b := docs[0].Workloads[w], docs[1].Workloads[w]
		for _, d := range endToEnd {
			x, y := a.Timed.Report.Metrics[d.Name].Value, b.Timed.Report.Metrics[d.Name].Value
			diff, bound := relDiff(x, y), spec.bound(d.Name)
			verdict := "ok"
			if diff > bound {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-22s %-28s %14.6g %14.6g %8.1f%% %6.0f%%  %s\n", w, d.Name, x, y, 100*diff, 100*bound, verdict)
		}
		for _, name := range exactCounts {
			if !slices.Contains(exactWorkloads, w) {
				continue
			}
			x, y := a.Traced.Report.Metrics[name].Value, b.Traced.Report.Metrics[name].Value
			verdict := "ok"
			if x != y {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-22s %-28s %14.6g %14.6g %9s %7s  %s\n", w, name, x, y, "", "exact", verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: check failed: %d disagreement(s)\n", bad)
		return 1
	}
	fmt.Println("check passed: the two passes agree within every bound")
	return 0
}

// relDiff is |a−b| as a share of the smaller magnitude.
func relDiff(a, b float64) float64 {
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / lo
}
