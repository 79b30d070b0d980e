package cqbound

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// deletedHarnessRef matches the command-line modes and checked-in records of
// the timing harness that bench/ replaced.
var deletedHarnessRef = regexp.MustCompile(`-(planbench|shardbench|spillbench|ingestbench|tracebench)|BENCH_[a-z_]+\.json`)

// TestNoDeletedHarnessReferences keeps code, CI and the user-facing docs from
// pointing at a cqbench timing mode or a BENCH_*.json record again: bench/
// (run through BENCHMARK.json) is the only instrument. bench/ itself, whose
// README maps each old record to the metric that replaced it, is exempt, and
// the planning and change logs are not scanned.
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
				t.Errorf("%s:%d: refers to the deleted timing harness (%s)", path, i+1, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
