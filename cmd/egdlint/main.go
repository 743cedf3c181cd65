// Command egdlint is the multichecker for the egdlint analyzer suite:
// it enforces the MPI-usage and determinism invariants the reproduction
// depends on (see internal/lint/README.md).
//
//	egdlint ./...            lint every package of the module in cwd
//	egdlint -list            print the analyzers and their docs
//	egdlint -dir path ./...  lint a module rooted elsewhere
//	egdlint -json ./...      machine-readable findings (one JSON array)
//	egdlint -run a,b ./...   run only the named analyzers (e.g. the docs
//	                         CI job runs -run pkgdoc)
//	egdlint -tests ./...     also lint _test.go files with the
//	                         SPMD-safety subset (hang-class analyzers)
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire shape: stable field names for CI
// tooling (the problem matcher consumes the plain format; artifacts and
// scripts consume this one).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// filterAnalyzers resolves a comma-separated -run list against the
// suite, preserving the suite's reporting order. An unknown name is an
// operational error (exit 2), not a silent no-op, so a typo in a CI job
// ("pkgdocs") fails the job instead of green-lighting unlinted code.
func filterAnalyzers(suite []*lint.Analyzer, names string) ([]*lint.Analyzer, error) {
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var picked []*lint.Analyzer
	for _, a := range suite {
		if want[a.Name] {
			picked = append(picked, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for _, n := range strings.Split(names, ",") {
			n = strings.TrimSpace(n)
			if want[n] {
				unknown = append(unknown, n)
				delete(want, n)
			}
		}
		return nil, fmt.Errorf("unknown analyzer(s) %s (see -list)", strings.Join(unknown, ", "))
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return picked, nil
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("egdlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		list     = fs.Bool("list", false, "print the analyzers and exit")
		dir      = fs.String("dir", ".", "directory to resolve package patterns in")
		asJSON   = fs.Bool("json", false, "emit findings as a JSON array instead of text")
		andTests = fs.Bool("tests", false, "also lint test files with the SPMD-safety analyzers")
		only     = fs.String("run", "", "comma-separated analyzer names to run (default: all; see -list)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *only != "" {
		picked, err := filterAnalyzers(analyzers, *only)
		if err != nil {
			fmt.Fprintln(errw, "egdlint:", err)
			return 2
		}
		analyzers = picked
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.RunAnalyzers(*dir, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(errw, "egdlint:", err)
		return 2
	}
	if *andTests {
		// Test files get only the hang-class analyzers: tests legitimately
		// use bare tag literals, discarded errors, and wall-clock time, but
		// a rank-conditioned collective deadlocks a test run just like a rank.
		// Under -run, the test pass honours the same selection.
		testSuite := lint.SPMDSafety()
		if *only != "" {
			enabled := make(map[string]bool)
			for _, a := range analyzers {
				enabled[a.Name] = true
			}
			var kept []*lint.Analyzer
			for _, a := range testSuite {
				if enabled[a.Name] {
					kept = append(kept, a)
				}
			}
			testSuite = kept
		}
		if len(testSuite) > 0 {
			testFindings, err := lint.RunAnalyzersTests(*dir, patterns, testSuite)
			if err != nil {
				fmt.Fprintln(errw, "egdlint:", err)
				return 2
			}
			findings = append(findings, testFindings...)
		}
	}
	if *asJSON {
		enc := make([]jsonFinding, len(findings))
		for i, f := range findings {
			enc[i] = jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			}
		}
		je := json.NewEncoder(out)
		je.SetIndent("", "  ")
		if err := je.Encode(enc); err != nil {
			fmt.Fprintln(errw, "egdlint:", err)
			return 2
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(out, "egdlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
