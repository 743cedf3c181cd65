package main

import (
	"encoding/json"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/lint"
)

func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
}

func TestList(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("egdlint -list exited %d: %s", code, errw.String())
	}
	got := out.String()
	names := []string{"determinism"}
	for _, name := range names {
		if !strings.Contains(got, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, got)
		}
	}
	if n := strings.Count(got, "\n"); n != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", n, len(names), got)
	}
}

// The whole repository must lint clean: this is the same invariant
// `make lint` enforces in CI, kept under `go test` so a finding fails
// the ordinary test run too.
func TestRepoLintsClean(t *testing.T) {
	needGo(t)
	var out, errw strings.Builder
	code := run([]string{"-dir", "../..", "./..."}, &out, &errw)
	if code == 2 {
		t.Fatalf("egdlint failed to run: %s", errw.String())
	}
	if code != 0 {
		t.Errorf("egdlint found violations in the repo:\n%s", out.String())
	}
}

// fixtureDir holds the analyzer's fixtures; lintFixtures registers their
// package as deterministic for the length of the test, as the analyzer's
// own suite does, so linting it reports every violation the fixtures seed.
const fixtureDir = "../../internal/lint/testdata/src"

func lintFixtures(t *testing.T) {
	old := lint.DeterministicPaths
	lint.DeterministicPaths = append(append([]string(nil), old...), "fixtures/determinism")
	t.Cleanup(func() { lint.DeterministicPaths = old })
}

// -json emits one well-formed array with the stable field names CI
// tooling consumes, and keeps the findings-mean-exit-1 contract.
func TestJSONOutput(t *testing.T) {
	needGo(t)
	lintFixtures(t)
	var out, errw strings.Builder
	code := run([]string{"-dir", fixtureDir, "-json", "./determinism"}, &out, &errw)
	if code != 1 {
		t.Fatalf("expected exit 1 on dirty fixtures, got %d (stderr: %s)", code, errw.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json produced an empty array for dirty fixtures")
	}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Column <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}

	// A clean run still emits valid JSON: an empty array, exit 0.
	out.Reset()
	errw.Reset()
	code = run([]string{"-dir", "../..", "-json", "./internal/bitset"}, &out, &errw)
	if code != 0 {
		t.Fatalf("clean package exited %d: %s%s", code, out.String(), errw.String())
	}
	var empty []json.RawMessage
	if err := json.Unmarshal([]byte(out.String()), &empty); err != nil || len(empty) != 0 {
		t.Errorf("clean -json run should emit an empty array, got %q (err %v)", out.String(), err)
	}
}

// The fixture tree deliberately violates the analyzer; linting it must
// produce findings and exit 1, proving the binary's non-zero path.
func TestFixturesAreDirty(t *testing.T) {
	needGo(t)
	lintFixtures(t)
	var out, errw strings.Builder
	code := run([]string{"-dir", fixtureDir, "./determinism"}, &out, &errw)
	if code != 1 {
		t.Fatalf("expected exit 1 on fixture packages, got %d (stderr: %s)", code, errw.String())
	}
	for _, want := range []string{"determinism", "finding(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fixture lint output missing %q:\n%s", want, out.String())
		}
	}
}

// -tests and -run went with the test-file loader and the analyzer filter;
// a script still passing them fails loudly instead of linting less.
func TestRetiredFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-tests", "./..."}, {"-run", "determinism", "./..."}} {
		var out, errw strings.Builder
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("egdlint %v exited %d, want 2", args, code)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}
