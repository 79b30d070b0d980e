package main

import (
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cqbound"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true}, {9999, 0.99, true}, {1000, 0.99, true}, {999, 0.95, true},
		{200, 0.95, true}, {199, 0.90, true}, {100, 0.90, true}, {99, 0.75, true},
		{40, 0.75, true}, {39, 0, false}, {8, 0, false}, {0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-got) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5.5, 0.9: 9.1, 0.25: 3.25, 0: 1, 1: 10, 1.5: 10, -1: 1} {
		if got := percentile(asc, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(p=%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns: the acceptance rule for the bounds is stated in them.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; Python gives 1.5, 12", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	mk := func(id, parent int, layer string, start, end int64) *span {
		return &span{ID: id, Parent: parent, Layer: layer, StartNs: start, EndNs: end}
	}
	spans := []*span{
		mk(1, 0, "bench", 0, 100),
		mk(2, 1, "eval", 10, 40),   // child
		mk(3, 1, "shard", 30, 60),  // overlaps child 2 on [30,40]
		mk(4, 2, "batch", 15, 20),  // grandchild, nested in 2
		mk(5, 1, "spill", 90, 120), // sticks out of the parent: clipped at 100
		mk(6, 0, "cq", 200, 210),   // another root
	}
	selfTimes(spans)
	want := map[int]int64{1: 100 - (60 - 10) - (100 - 90), 2: 30 - 5, 3: 30, 4: 5, 5: 30, 6: 10}
	for _, s := range spans {
		if s.SelfNs != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.SelfNs, want[s.ID])
		}
	}
	shares := layerShares(spans)
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("layer shares sum to %v, want 1", total)
	}
	if got, want := shares["eval"], 25.0/140; math.Abs(got-want) > 1e-12 {
		t.Errorf("eval share = %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	s := r.begin(nil, 1, "eval", "x")
	s.count("rows", 3)
	s.end()
	if s != nil || s.durationMs() != 0 {
		t.Errorf("a nil recorder must hand out nil spans")
	}
}

// The result hash must not depend on row order, must see any changed
// tuple, and must come out the same whether computed from a relation's
// columns or scanned out of the server's JSON.
func TestResultSignature(t *testing.T) {
	rows := [][]string{{"u1", "u2"}, {"u2", "u3"}, {"u3", "u1"}, {"n7_0", "u2"}}
	build := func(order []int, swap bool) *cqbound.Relation {
		r := cqbound.NewRelation("T", "a", "b")
		for _, i := range order {
			a, b := rows[i][0], rows[i][1]
			if swap && i == 1 {
				a, b = b, a
			}
			r.Add(a, b)
		}
		return r
	}
	h := newSigHasher(cqbound.ValueDict())
	base := h.sig(build([]int{0, 1, 2, 3}, false))
	if got := h.sig(build([]int{3, 1, 0, 2}, false)); got != base {
		t.Errorf("signature depends on row order: %+v vs %+v", got, base)
	}
	if got := h.sig(build([]int{0, 1, 2, 3}, true)); got == base {
		t.Errorf("signature blind to a swapped tuple")
	}
	if got := h.sig(build([]int{0, 1, 2}, false)); got == base || got.Rows != 3 {
		t.Errorf("signature blind to a missing tuple: %+v", got)
	}

	body, err := json.Marshal(map[string]any{"query": "Q(X,Y) <- T(X,Y).", "epoch": 42, "rows": len(rows),
		"attrs": []string{"a", "b"}, "tuples": [][]string{rows[2], rows[0], rows[3], rows[1]}, "cached": true})
	if err != nil {
		t.Fatal(err)
	}
	// encoding/json sorts map keys; the server's struct order differs, and
	// the scanner must not care.
	epoch, cached, sig, err := scanQueryResponse(body)
	if err != nil || epoch != 42 || !cached || sig != base {
		t.Errorf("scanQueryResponse = epoch %d cached %v sig %+v err %v; want 42 true %+v", epoch, cached, sig, err, base)
	}
	empty := []byte(`{"query":"q","epoch":3,"rows":0,"attrs":["a"],"tuples":[],"cached":false}`)
	if epoch, cached, sig, err := scanQueryResponse(empty); err != nil || epoch != 3 || cached || sig != (resultSig{}) {
		t.Errorf("empty reply scanned as epoch %d cached %v sig %+v err %v", epoch, cached, sig, err)
	}
	for _, bad := range []string{
		`{"epoch":1,"rows":2,"tuples":[["u1","u2"]],"cached":false}`,   // row count disagrees
		`{"epoch":1,"rows":1,"tuples":[["u\"1","u2"]],"cached":false}`, // escape
		`{"epoch":1,"rows":1,"tuples":[["u1","u2"`,                     // truncated
		`{"error":"overloaded"}`,
	} {
		if _, _, _, err := scanQueryResponse([]byte(bad)); err == nil {
			t.Errorf("scanQueryResponse accepted %s", bad)
		}
	}
}

// The incremental reference of ingest-read against brute force.
func TestRefGraphMatchesBruteForce(t *testing.T) {
	const universe = 12
	g := newRefGraph(universe)
	rng := streamRNG(7, 1)
	f := intEdges(rng, 30, universe)
	e := intEdges(rng, 60, universe)
	for _, x := range f {
		g.addF(x[0], x[1])
	}
	for _, x := range e {
		g.addE(x[0], x[1])
	}
	has := func(set []intEdge, a, b int32) bool {
		for _, x := range set {
			if x[0] == a && x[1] == b {
				return true
			}
		}
		return false
	}
	var tri, hop resultSig
	for a := int32(0); a < universe; a++ {
		for b := int32(0); b < universe; b++ {
			twoHop := false
			for c := int32(0); c < universe; c++ {
				if has(e, a, b) && has(e, b, c) && has(e, a, c) {
					tri.Rows++
					tri.Hash += g.tupleHash(a, b, c)
				}
				twoHop = twoHop || has(e, a, c) && has(f, c, b)
			}
			if twoHop {
				hop.Rows++
				hop.Hash += g.tupleHash(a, b)
			}
		}
	}
	if g.tri != tri || g.hop != hop {
		t.Errorf("incremental triangle %+v two-hop %+v; brute force %+v %+v", g.tri, g.hop, tri, hop)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload and metric name in BENCHMARK.json is one the code emits,
// and the other way round.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("workload %q has no set-up function", w.Name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	same := func(kind string, in []specMetric, defs []metricDef) {
		if len(in) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(in), len(defs))
		}
		emitted := fill(defs, nil)
		seen := map[string]bool{}
		for i, m := range in {
			if i < len(defs) && (m.Name != defs[i].Name || m.Unit != defs[i].Unit || m.Better != defs[i].Better) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, m, defs[i])
			}
			if _, ok := emitted[m.Name]; !ok {
				t.Errorf("%s: %q is in BENCHMARK.json but never emitted", kind, m.Name)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %q better=%q", kind, m.Name, m.Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("too many metrics: %d end-to-end (max 16), %d per-layer (max 128)", len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the set-up metric must be setup_s in s, lower is better; have %+v", s)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// parseBench parses the benchmark's own non-test sources.
func parseBench(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// Every metric name the code stores a value under is in the catalogue, so
// a typo cannot silently report 0.
func TestStoredMetricNamesAreCatalogued(t *testing.T) {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	fset, files := parseBench(t)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			target := exprString(ix.X)
			if target != "vals" && target != "pb.vals" && target != "counts" && target != "res.Peaks" {
				return true
			}
			lit, ok := ix.Index.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			if !known[name] {
				t.Errorf("%s: value stored under %q, which is not in the metric catalogue", fset.Position(ix.Pos()), name)
			}
			return true
		})
	}
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	}
	return ""
}

// allowedInternal is the API the benchmark may use below the root
// package: the layer entry points the per-layer table names, and nothing
// else, so that a later change that deletes an internal path never has to
// edit the benchmark to compile.
var allowedInternal = map[string][]string{
	"cqbound/internal/cq":       {"Parse"},
	"cqbound/internal/core":     {"Analyze"},
	"cqbound/internal/plan":     {"ChooseForDB", "BoundRows", "ExecuteOpts", "OrderAtoms"},
	"cqbound/internal/eval":     {"NaiveCtx", "JoinProjectExec", "YannakakisExec", "GenericJoinExec"},
	"cqbound/internal/relation": {"NewFromColumns", "HashJoin", "SemijoinOn"},
	"cqbound/internal/shard":    {"Partition", "Options"},
	"cqbound/internal/batch":    {"Scan", "JoinProbe", "Project", "Materialize"},
	"cqbound/internal/spill":    {"Manage", "NewGovernor"},
	"cqbound/internal/serve":    {"NewCache", "NewAdmission"},
}

// forbiddenNames are what ROADMAP items 2-4 propose to delete; the
// benchmark may not mention them in any form. Counts come from registry
// gauge names instead of the per-family stats structs.
var forbiddenNames = []string{"WithMaterializedExec", "NaturalJoinStream", "SemijoinStream", "ProjectStream",
	"ExtendMemos", "ShardStats", "StreamStats", "SpillStats", "EpochStats", "EngineStats", "CacheStats",
	"AdmissionStats", "ResultCacheStats", "ObsStats", "Stats"}

func TestImportAllowList(t *testing.T) {
	fset, files := parseBench(t)
	for _, f := range files {
		local := map[string]string{} // local package name → import path
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(path, "cqbound") {
				continue
			}
			if path != "cqbound" {
				if _, ok := allowedInternal[path]; !ok {
					t.Errorf("%s: import of %s is not on the allow-list", fset.Position(im.Pos()), path)
				}
			}
			name := filepath.Base(path)
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, bad := range forbiddenNames {
				if sel.Sel.Name == bad {
					t.Errorf("%s: %s is slated for deletion or is a stats struct; use registry gauges", fset.Position(sel.Pos()), bad)
				}
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Obj != nil {
				return true
			}
			path, ok := local[pkg.Name]
			if !ok || path == "cqbound" {
				return true
			}
			if !slices.Contains(allowedInternal[path], sel.Sel.Name) {
				t.Errorf("%s: %s.%s is not an allowed layer entry point", fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

// Every gauge name the benchmark reads is one the engine or the server
// registers today; a later rename shows as absent (-1) at run time, and
// here first.
func TestGaugesExist(t *testing.T) {
	eng := cqbound.NewEngine(cqbound.WithSharding(shardThreshold, shardCount))
	srv := cqbound.NewServer(eng)
	defer srv.Close()
	snap := eng.MetricsSnapshot()
	names := []string{"cache_hits", "cache_misses", "spill_bytes_on_disk", "spill_peak_resident_bytes", "epoch_commits",
		"serve_cache_hits", "serve_cache_misses", "serve_cache_invalidations", "serve_admission_queued",
		"serve_admission_rejected", "serve_clamped"}
	for _, g := range engineGauges {
		names = append(names, g)
	}
	for _, name := range names {
		if _, ok := gauge(snap, name); !ok {
			t.Errorf("registry has no gauge %q", name)
		}
	}
	if v := gaugeDelta(snap, snap, "no_such_gauge", 1); v != absent {
		t.Errorf("a missing gauge must read absent, got %v", v)
	}
}

func TestMergeWeightsCountsByOperations(t *testing.T) {
	a, b := newResult(), newResult()
	a.Attempted, b.Attempted = 1, 3
	a.Counts["shard.sharded_ops"], b.Counts["shard.sharded_ops"] = 30, 30
	a.Counts["spill.evictions"], b.Counts["spill.evictions"] = 100, 200
	a.Counts["txn.swept_buffers"], b.Counts["txn.swept_buffers"] = absent, 2
	a.Peaks["eval.max_intermediate_rows"], b.Peaks["eval.max_intermediate_rows"] = 9, 7
	a.merge(b)
	for name, want := range map[string]float64{"shard.sharded_ops": 30, "spill.evictions": 175, "txn.swept_buffers": absent} {
		if got := a.Counts[name]; got != want {
			t.Errorf("merged %s = %v, want %v", name, got, want)
		}
	}
	if got := a.Peaks["eval.max_intermediate_rows"]; got != 9 {
		t.Errorf("merged peak = %v, want 9", got)
	}
	if a.Attempted != 4 {
		t.Errorf("merged attempted = %d, want 4", a.Attempted)
	}
	vals := map[string]float64{}
	a.Counts["commits"] = 1
	a.report(vals)
	if _, leaked := vals["commits"]; leaked || vals["spill.evictions"] != 175 || vals["eval.max_intermediate_rows"] != 9 {
		t.Errorf("report copied %v", vals)
	}
}

// The reference of a scaled query must come from a strategy the engine
// under test does not plan, whatever the planner picks.
func TestReferenceAvoidsPlannedStrategy(t *testing.T) {
	cfg := config{Workload: wScaled, Seed: defaultSeed, Quick: true, OutDir: t.TempDir(), Cores: 1}
	inst, err := setupScaled(context.Background(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	li := inst.(*libInstance)
	for _, lq := range li.queries {
		p, err := li.eng.ExplainDB(lq.q, lq.db)
		if err != nil {
			t.Fatal(err)
		}
		if lq.refPath == "" || strings.Contains(lq.refPath, "("+p.Strategy.String()+")") {
			t.Errorf("%s: planned %v, reference %q", lq.name, p.Strategy, lq.refPath)
		}
	}
}

func Example_resultLine() {
	rep := report{Correct: true, Attempted: 3, Failed: 0, Metrics: fill([]metricDef{{"setup_s", "s", "lower"}}, map[string]float64{"setup_s": 0.25})}
	b, _ := json.Marshal(rep)
	fmt.Println(string(b))
	// Output: {"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}
}

func TestMain(m *testing.M) {
	// The tests read BENCHMARK.json from the repository root and parse the
	// sources in this directory; both are found relative to it.
	if _, err := os.Stat("main.go"); err != nil {
		fmt.Fprintln(os.Stderr, "bench tests must run in the benchmark's directory")
		os.Exit(1)
	}
	os.Exit(m.Run())
}
