package main

// One run of one workload: set up, measure for the configured time,
// verify every operation, report. The timed run (tracing off) yields the
// end-to-end metrics; the traced run yields the per-layer metrics and the
// span file.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Harness constants, recorded in every report so numbers compare across
// machines: the shard count and row threshold are cqserve's. The budget is
// the largest power of two under which the scaled round evicts at all (its
// working set is 13 MB): about 160 evictions a round, 5–10 % of its time.
// Smaller budgets evict 1400–2900 times a round, and every re-eviction
// renames a new segment over the buffer's old one, which ext4 answers by
// allocating and flushing at once: 0.4–1.4 s of a 2 s round, depending on
// what the disk is doing, so that no timing of that round repeats.
const (
	shardCount     = 4
	shardThreshold = 1024
	spillBudget    = 8 << 20
	batchSize      = 1024
)

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Quick shrinks inputs and repeats so the whole set finishes in
	// seconds (and under the race detector); outputs are still verified.
	Quick  bool
	OutDir string
	// Cores is C = min(nproc, 4): GOMAXPROCS and the most goroutines or
	// connections that generate load.
	Cores int
}

// scale shrinks a full-size count under -quick, never below lo.
func (c config) scale(n, div, lo int) int {
	if !c.Quick {
		return n
	}
	return max(n/div, lo)
}

// result collects the measured operations of one run segment.
type result struct {
	Lat       []float64 // per-op latency inside the program under test, ms
	Attempted int
	Failed    int
	Wall      time.Duration
	// Work is the operations completed, when a workload can count them
	// finer than whole operations; 0 means Attempted − Failed.
	Work float64
	// Series holds named per-op samples beside the op latency (commit and
	// read times, per-kind request latencies).
	Series map[string][]float64
	// Counts holds counters observed over the segment, per operation;
	// Peaks holds high-water marks.
	Counts map[string]float64
	Peaks  map[string]float64
	fails  []string
}

func newResult() *result {
	return &result{Series: make(map[string][]float64), Counts: make(map[string]float64), Peaks: make(map[string]float64)}
}

// fail records a failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.fails) < 5 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// report copies the segment's counts and peaks that are per-layer
// metrics into vals.
func (r *result) report(vals map[string]float64) {
	for _, m := range []map[string]float64{r.Counts, r.Peaks} {
		for k, v := range m {
			if strings.Contains(k, ".") { // metric names are <layer>.<name>
				vals[k] = v
			}
		}
	}
}

// work is the operations completed without failure.
func (r *result) work() float64 {
	if r.Work > 0 {
		return r.Work
	}
	return float64(r.Attempted - r.Failed)
}

func (r *result) add(name string, v float64) { r.Series[name] = append(r.Series[name], v) }

// merge appends another segment of the same run. Counts are per
// operation, so they combine weighted by the operations behind them (a
// count absent from the program stays absent); peaks combine by maximum.
func (r *result) merge(o *result) {
	a, b := float64(r.Attempted), float64(o.Attempted)
	for k, v := range o.Counts {
		switch old, seen := r.Counts[k]; {
		case !seen:
			r.Counts[k] = v
		case v == absent || old == absent:
			r.Counts[k] = absent
		case a+b > 0:
			r.Counts[k] = (old*a + v*b) / (a + b)
		}
	}
	for k, v := range o.Peaks {
		if old, seen := r.Peaks[k]; !seen || v > old {
			r.Peaks[k] = v
		}
	}
	r.Lat = append(r.Lat, o.Lat...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Wall += o.Wall
	r.Work += o.Work
	for k, v := range o.Series {
		r.Series[k] = append(r.Series[k], v...)
	}
	r.fails = append(r.fails, o.fails...)
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// run performs measured operations until d has passed, verifying
	// each. A non-nil recorder makes it the traced form of the same ops.
	run(ctx context.Context, d time.Duration, rec *recorder) *result
	// probe measures the workload's layers in isolation on its own inputs
	// and stores the per-layer metrics in vals. base and traced are the
	// untraced and traced segments of the traced run.
	probe(ctx context.Context, rec *recorder, base, traced *result, vals map[string]float64)
	// info describes the set-up for the report header.
	info() map[string]any
	close() error
}

// setups maps each workload to its set-up function.
var setups = map[string]setupFunc{
	wSmallShapes: setupSmallShapes,
	wScaled:      func(ctx context.Context, cfg config) (instance, error) { return setupScaled(ctx, cfg, 0) },
	wBudgeted:    func(ctx context.Context, cfg config) (instance, error) { return setupScaled(ctx, cfg, spillBudget) },
	wIngestRead:  setupIngestRead,
	wServeMix:    setupServeMix,
}

// report is the result line: exactly the keys the driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupFunc sets one workload up.
type setupFunc func(ctx context.Context, cfg config) (instance, error)

// prepare finds the workload's set-up and readies the process for it.
func prepare(cfg config) (setupFunc, error) {
	setup, ok := setups[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloadNames, ", "))
	}
	runtime.GOMAXPROCS(cfg.Cores)
	return setup, os.MkdirAll(cfg.OutDir, 0o755)
}

// runWorkload performs one run and returns the report plus the header
// describing the run's configuration.
func runWorkload(ctx context.Context, cfg config) (*report, map[string]any, error) {
	setup, err := prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Trace {
		return runTraced(ctx, cfg, setup)
	}
	return runTimed(ctx, cfg, setup)
}

// A timed run measures at least minSetups set-ups and, while they are
// cheap, more: up to maxSetups, until setupBudget is spent. setup_s is
// their median. A set-up of a fifth of a second takes a quarter longer on
// a processor that has just been idle, so three samples of it do not
// repeat; three set-ups of three seconds do. Each set-up is the first
// thing a process does — a child process of this binary for every one but
// the last, which is the run's own — so every sample pays for a cold heap
// and an empty value dictionary, as a user's set-up does. Under -quick
// the run's own set-up is the only one.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// setupOnce sets the workload up, tears it down and returns the seconds
// the set-up took: what a -setup-only child does.
func setupOnce(ctx context.Context, cfg config) (float64, error) {
	setup, err := prepare(cfg)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	inst, err := setup(ctx, cfg)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	s := time.Since(t0).Seconds()
	return s, inst.close()
}

// childSetup measures one set-up in a child process.
func childSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10), "-setup-only", "-out", cfg.OutDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func header(cfg config, inst instance, res *result) map[string]any {
	h := map[string]any{
		"workload": cfg.Workload, "seed": cfg.Seed, "seconds": cfg.Seconds, "trace": cfg.Trace,
		"quick": cfg.Quick, "gomaxprocs": runtime.GOMAXPROCS(0), "C": cfg.Cores, "P": shardCount,
		"shard_threshold": shardThreshold, "ops": res.Attempted, "samples": len(res.Lat),
		"go": runtime.Version(),
	}
	for k, v := range inst.info() {
		h[k] = v
	}
	return h
}

// runTimed is the run the end-to-end metrics come from: tracing off,
// several set-ups (median reported), memory measured over the measured
// phase only.
func runTimed(ctx context.Context, cfg config, setup setupFunc) (*report, map[string]any, error) {
	var setupS []float64
	var spent time.Duration
	for k := 1; !cfg.Quick && (k < minSetups || k < maxSetups && spent < setupBudget); k++ {
		s, err := childSetup(cfg)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, s)
		spent += seconds(s)
	}
	t0 := time.Now()
	inst, err := setup(ctx, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	setupS = append(setupS, time.Since(t0).Seconds())
	defer inst.close()

	// Start the measured phase from a settled heap, so peak RSS and
	// allocation are the measured operations' own and not the set-ups'.
	debug.FreeOSMemory()
	hwmReset := resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := inst.run(ctx, seconds(cfg.Seconds), nil)
	runtime.ReadMemStats(&m1)
	rss := peakRSSBytes()

	for _, f := range res.fails {
		fmt.Fprintln(os.Stderr, "bench: failed op:", f)
	}
	if len(res.Lat) == 0 || res.Wall <= 0 {
		return nil, nil, fmt.Errorf("no operation completed in %.1fs", cfg.Seconds)
	}
	asc := sorted(res.Lat)
	vals := map[string]float64{
		"setup_s":          median(setupS),
		"op_p50_ms":        percentile(asc, 0.5),
		"throughput_ops_s": res.work() / res.Wall.Seconds(),
		"peak_rss_mb":      float64(rss) / (1 << 20),
		"alloc_mb_per_op":  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(res.Attempted),
	}
	h := header(cfg, inst, res)
	h["setups"] = len(setupS)
	h["setup_s_all"] = setupS
	h["peak_rss_covers"] = map[bool]string{true: "measured phase", false: "whole process"}[hwmReset]
	if p, ok := tailPercentile(len(asc)); ok {
		h["op_tail"] = fmt.Sprintf("p%g=%.4fms", p*100, percentile(asc, p))
	}
	return &report{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: fill(endToEnd, vals)}, h, nil
}

// runTraced is the run the per-layer metrics come from: the measured
// operations run for the configured time, untraced (the baseline the
// tracing overhead is measured against) and traced in turn; the isolated
// layer probes follow.
func runTraced(ctx context.Context, cfg config, setup setupFunc) (*report, map[string]any, error) {
	inst, err := setup(ctx, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	// Untraced and traced segments alternate A-B-B-A, a quarter of the
	// run each, and the overhead compares the means of the segment
	// medians: a steady drift in op latency (data that grows) then
	// cancels, which pooling the samples would not do — the early, faster
	// segment holds more of them. Where one operation outlasts a segment,
	// A-B has already used the time and is all there is.
	quarter := seconds(cfg.Seconds / 4)
	rec := newRecorder()
	var base, traced *result
	var baseMed, tracedMed []float64
	segment := func(into **result, medians *[]float64, r *recorder) {
		res := inst.run(ctx, quarter, r)
		*medians = append(*medians, median(res.Lat))
		if *into == nil {
			*into = res
		} else {
			(*into).merge(res)
		}
	}
	t0 := time.Now()
	segment(&base, &baseMed, nil)
	segment(&traced, &tracedMed, rec)
	if time.Since(t0) < 3*quarter {
		segment(&traced, &tracedMed, rec)
		segment(&base, &baseMed, nil)
	}
	vals := make(map[string]float64)
	inst.probe(ctx, rec, base, traced, vals)

	for _, f := range append(base.fails, traced.fails...) {
		fmt.Fprintln(os.Stderr, "bench: failed op:", f)
	}
	if len(base.Lat) == 0 || len(traced.Lat) == 0 {
		return nil, nil, fmt.Errorf("no operation completed in %.1fs", cfg.Seconds)
	}
	vals["bench.trace_overhead_frac"] = ratio(mean(tracedMed), mean(baseMed)) - 1
	all := sorted(append(append([]float64(nil), base.Lat...), traced.Lat...))
	vals["bench.samples"] = float64(len(all))
	if p, ok := tailPercentile(len(all)); ok {
		vals["bench.op_tail_ms"] = percentile(all, p)
		vals["bench.op_tail_pct"] = p * 100
	}
	h := header(cfg, inst, traced)
	path := filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")
	shares, err := rec.finish(path, cfg.Workload, cfg.Seed, h)
	if err != nil {
		return nil, nil, fmt.Errorf("writing trace: %w", err)
	}
	for _, l := range layers {
		vals[l+".self_frac"] = shares[l]
	}
	h["trace_file"] = path
	attempted, failed := base.Attempted+traced.Attempted, base.Failed+traced.Failed
	if vals["bench.intent_ok"] != 1 {
		fmt.Fprintf(os.Stderr, "bench: WARNING: %s did not do what it is for (bench.intent_ok=0); file a benchmark issue before reading its numbers\n", cfg.Workload)
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: fill(perLayer, vals)}, h, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSBytes reads the process's resident-set high-water mark (VmHWM)
// from procfs; 0 where there is none.
func peakRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark from the current resident
// set, so the next reading covers only what follows. It reports whether
// the kernel allowed it; when not, peak RSS covers the whole process.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// gauge reads one registry gauge from a MetricsSnapshot; ok is false when
// the program does not export it.
func gauge(snap map[string]any, name string) (int64, bool) {
	v, ok := snap[name].(int64)
	return v, ok
}

// gaugeDelta is after−before of one gauge scaled by 1/per, or absent.
func gaugeDelta(before, after map[string]any, name string, per float64) float64 {
	a, ok1 := gauge(after, name)
	b, ok2 := gauge(before, name)
	if !ok1 || !ok2 {
		return absent
	}
	if per <= 0 {
		per = 1
	}
	return float64(a-b) / per
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeMs runs f and returns how long it took in milliseconds.
func timeMs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// medianOf runs f reps times and returns the median duration in ms.
func medianOf(reps int, f func()) float64 {
	xs := make([]float64, 0, reps)
	for i := 0; i < max(reps, 1); i++ {
		xs = append(xs, timeMs(f))
	}
	return median(xs)
}
