// Command egdlint runs the egdlint analyzer suite: it enforces the
// determinism invariant the reproduction depends on (see
// internal/lint/README.md).
//
//	egdlint ./...            lint every package of the module in cwd
//	egdlint -list            print the analyzers and their docs
//	egdlint -dir path ./...  lint a module rooted elsewhere
//	egdlint -json ./...      machine-readable findings (one JSON array)
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

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

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("egdlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		list   = fs.Bool("list", false, "print the analyzers and exit")
		dir    = fs.String("dir", ".", "directory to resolve package patterns in")
		asJSON = fs.Bool("json", false, "emit findings as a JSON array instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
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
