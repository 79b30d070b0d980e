package cqbound

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// deletedHarnessRef matches the command-line modes and checked-in records of
// the timing harness that bench/ replaced, the Engine options, root
// evaluation shortcuts and dictionary parking that no command or benchmark
// workload used, the hand-written stats families, getters and helpers the
// metric registry replaced, the hot-shard skew splitting (its trigger,
// tee, merges, span kind and example) that a part's single probe chain
// replaced, the commit-time memo carry-over that lazy per-epoch memo
// builds replaced, the string-keyed dedup maps and generic join's map
// tries that KeyTable and the per-prefix indexes replaced, the rolling
// serve windows (their types, gauges, exposition families and clock
// option) that the registry's serve counters and histograms replaced, the
// per-request view and access-record copies that obs.Request replaced, the
// per-family trace deltas that registry-named deltas replaced, the
// per-part sink views and their lazy concatenation that one flat sink with
// part offsets replaced, the per-epoch plan entries (their key suffix,
// pruning and cache walks) that one query cache keyed by query text
// replaced, the sort-merge join and the name-matching semijoin that
// HashJoin and SemijoinOn cover, and the estimators, set operations and
// helpers no caller used.
var deletedHarnessRef = regexp.MustCompile(`-(planbench|shardbench|spillbench|ingestbench|tracebench)|BENCH_[a-z_]+\.json|` +
	`\b(WithDictSpill|WithSkewSplitting|WithBatchSize|WithEpochRetention|WithSlowQueryThreshold|` +
	`SkewFraction|NewBuffered|batch\.(Grow|Fan)|KindSkew|ExampleWithSharding_skew|` +
	`EvaluateYannakakis|EvaluateGenericJoin|ChoosePlan|ExecutePlan|Dict\.Park|` +
	`ShardStats|StreamStats|SpillStats|EpochStats|EngineStats|CacheStats|AdmissionStats|ResultCacheStats|ObsStats|` +
	`ResetCounters|epochCounterSnapshot|tracedOptions|tracedPrivate|tracedDeltas|counterSuffixes|promTypeFor|` +
	`ExtendMemos|ExtendPartitions|InstallMemo|extendIndex|extendStats|extendRanges|` +
	`trieNode|trieFor|ensureSeen|NewDedup|relation\.Dedup|` +
	`NewWindows|obs\.(Windows|Counter|Sampler|Distribution|Clock)|withObsClock|` +
	`serve_window_[a-z_]+|serve_(requests|shed|latency_p99_ns|queue_wait_p99_ns)_1m|EstimateJoinSize|DistinctCountAttr|` +
	`RequestView|AccessRecord|FamilyDelta|familyDeltas|CalibrationJSON|SortByString|` +
	`FromParts|ShardedStream|MaterializeFlat|baseOnce|shard\.Sharded|RMaxAll|` +
	`(shard|batch)\.(Metrics|Stats)|spill\.(Stats|Events)|` +
	`epochKeySuffix|prunePlans|planForHit|relation\.Union|(queries|plans|analyses)\.(Keys|Peek)|` +
	`EquiJoinSortMerge|allRowIDs|errJoinRange|joinRangeError|relation\.Semijoin)\b`)

// TestNoDeletedHarnessReferences keeps code, CI and the user-facing docs from
// pointing at a cqbench timing mode, a BENCH_*.json record or a deleted
// entry point again: bench/ (run through BENCHMARK.json) is the only
// instrument and Engine the one way in. bench/ itself, whose README maps
// each old record to the metric that replaced it, is exempt, and the
// planning and change logs are not scanned.
func TestNoDeletedHarnessReferences(t *testing.T) {
	docs := map[string]bool{
		"README.md":       true,
		"ARCHITECTURE.md": true,
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case "bench", ".git", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".yml":
			if path == "harness_refs_test.go" {
				return nil
			}
		case ".md":
			if !docs[path] {
				return nil
			}
		default:
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			if m := deletedHarnessRef.FindString(line); m != "" {
				t.Errorf("%s:%d: refers to a deleted harness mode or entry point (%s)", path, i+1, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoroutinesStartOnlyInPool keeps goroutine spawning in one
// supervised place: a go statement in a non-test file outside bench/ is
// allowed only in internal/pool, whose Run recovers a worker's panic and
// raises it on the caller, and in the commands under cmd/, which own their
// servers and load generators. Anything else that needs parallel work
// calls pool.Run.
func TestGoroutinesStartOnlyInPool(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case "bench", "cmd", ".git", ".bench_build", filepath.Join("internal", "pool"):
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside internal/pool and cmd/: run the work through pool.Run", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEveryOptionHasAUser holds the rule that justifies an option: every
// Engine Option and ServerOption constructor the root package exports is
// set by a command (cmd/) or a benchmark workload (bench/), not only by
// tests and examples. An option nothing sets is a constant.
func TestEveryOptionHasAUser(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var options []string
	for _, f := range pkgs["cqbound"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && (id.Name == "Option" || id.Name == "ServerOption") {
				options = append(options, fn.Name.Name)
			}
		}
	}
	if len(options) == 0 {
		t.Fatal("found no option constructors in the root package")
	}
	var users strings.Builder
	for _, dir := range []string{"cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
				return err
			}
			b, err := os.ReadFile(path)
			users.Write(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range options {
		if !regexp.MustCompile(`\bcqbound\.` + name + `\b`).MatchString(users.String()) {
			t.Errorf("option %s is set by no non-test file under cmd/ or bench/: make it a constant or delete it", name)
		}
	}
}
