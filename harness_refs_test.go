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
// workload used, and the hand-written stats families, getters and helpers
// the metric registry replaced.
var deletedHarnessRef = regexp.MustCompile(`-(planbench|shardbench|spillbench|ingestbench|tracebench)|BENCH_[a-z_]+\.json|` +
	`\b(WithDictSpill|WithSkewSplitting|WithBatchSize|WithEpochRetention|WithSlowQueryThreshold|` +
	`EvaluateYannakakis|EvaluateGenericJoin|ChoosePlan|ExecutePlan|Dict\.Park|` +
	`ShardStats|StreamStats|SpillStats|EpochStats|EngineStats|CacheStats|AdmissionStats|ResultCacheStats|ObsStats|` +
	`ResetCounters|epochCounterSnapshot|tracedOptions|tracedPrivate|tracedDeltas|counterSuffixes|promTypeFor|` +
	`(shard|batch)\.(Metrics|Stats)|spill\.(Stats|Events))\b`)

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
