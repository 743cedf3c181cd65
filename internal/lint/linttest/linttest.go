// Package linttest is an analysistest-style harness for egdlint
// analyzers: it runs one analyzer over fixture packages under
// testdata/src and compares the findings against `// want "regexp"`
// comments in the fixture sources.
//
// Fixture packages live in a self-contained module (testdata/src/go.mod,
// module "fixtures") so the loader resolves them with the ordinary go
// tooling. //egdlint:allow directives are honoured, so negative fixtures
// exercise the suppression path too.
package linttest

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe matches the trailing expectation comment: // want "rx" "rx" ...
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	raw  string
}

// Run applies the analyzer to each named fixture package (a directory
// under testdata/src) and reports mismatches between findings and the
// fixtures' want comments through t.
func Run(t *testing.T, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	dir := filepath.Join("testdata", "src")
	patterns := make([]string, len(pkgs))
	for i, p := range pkgs {
		patterns[i] = "./" + p
	}
	findings, err := lint.RunAnalyzers(dir, patterns, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var wants []*expectation
	for _, p := range pkgs {
		files, err := filepath.Glob(filepath.Join(dir, p, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no fixture files for %s (%v)", p, err)
		}
		for _, f := range files {
			ws, err := parseWants(f)
			if err != nil {
				t.Fatalf("parsing wants in %s: %v", f, err)
			}
			wants = append(wants, ws...)
		}
	}

	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || filepath.Base(f.Pos.Filename) != w.file || f.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(f.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no %s finding matching %q", w.file, w.line, a.Name, w.raw)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// parseWants extracts the expectations from one fixture file.
func parseWants(path string) ([]*expectation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var wants []*expectation
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		rest := strings.TrimSpace(m[1])
		for rest != "" {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				break // trailing prose after the quoted patterns
			}
			raw, err := strconv.Unquote(q)
			if err != nil {
				return nil, err
			}
			re, err := regexp.Compile(raw)
			if err != nil {
				return nil, err
			}
			wants = append(wants, &expectation{
				file: filepath.Base(path),
				line: line,
				re:   re,
				raw:  raw,
			})
			rest = strings.TrimSpace(rest[len(q):])
		}
	}
	return wants, sc.Err()
}
