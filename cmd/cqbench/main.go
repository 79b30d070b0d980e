// Command cqbench reproduces the paper: each experiment of
// internal/experiments (E1..E20) regenerates one figure, worked example or
// quantitative theorem and checks it against the paper's prediction; a
// diverging row exits 1. Performance is measured by bench/ instead.
//
// Usage:
//
//	cqbench -list
//	cqbench -experiment E7 [-markdown]
//	cqbench -all [-markdown]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cqbound/internal/experiments"
)

// runExperiment runs one experiment by ID; tests substitute reports.
var runExperiment = experiments.Run

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit status: 2 on a usage error, 1 on
// an unknown experiment or a row that diverged from the paper.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment ids")
	exp := fs.String("experiment", "", "run a single experiment (E1..E20)")
	all := fs.Bool("all", false, "run every experiment")
	markdown := fs.Bool("markdown", false, "emit results as Markdown tables")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var ids []string
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	case *exp != "":
		ids = []string{*exp}
	case *all:
		ids = experiments.IDs()
	default:
		fs.Usage()
		return 2
	}
	failures := 0
	for _, id := range ids {
		rep, err := runExperiment(id)
		if err != nil {
			fmt.Fprintln(stderr, "cqbench:", err)
			return 1
		}
		if *markdown {
			printMarkdown(stdout, rep)
		} else {
			fmt.Fprintln(stdout, rep)
		}
		failures += len(rep.Failed())
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "cqbench: %d rows diverged from the paper\n", failures)
		return 1
	}
	return 0
}

func printMarkdown(w io.Writer, rep *experiments.Report) {
	fmt.Fprintf(w, "### %s — %s (%s)\n\n", rep.ID, rep.Title, rep.Artifact)
	fmt.Fprintln(w, "| workload | paper | measured | ok |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, row := range rep.Rows {
		ok := "yes"
		if !row.OK {
			ok = "**NO**"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
			escape(row.Name), escape(row.Paper), escape(row.Measured), ok)
	}
	fmt.Fprintln(w)
}

func escape(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
