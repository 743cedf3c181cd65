package main

import (
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
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
	names := []string{"mpierrcheck", "mpicollective", "mpitag", "determinism", "pkgdoc"}
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

// Test files must lint clean too under the SPMD-safety subset: -tests
// is how CI keeps hang-class bugs out of the test suite itself.
func TestRepoTestFilesLintClean(t *testing.T) {
	needGo(t)
	var out, errw strings.Builder
	code := run([]string{"-dir", "../..", "-tests", "./..."}, &out, &errw)
	if code == 2 {
		t.Fatalf("egdlint -tests failed to run: %s", errw.String())
	}
	if code != 0 {
		t.Errorf("egdlint -tests found violations in the repo:\n%s", out.String())
	}
}

// -json emits one well-formed array with the stable field names CI
// tooling consumes, and keeps the findings-mean-exit-1 contract.
func TestJSONOutput(t *testing.T) {
	needGo(t)
	var out, errw strings.Builder
	code := run([]string{"-dir", "../../internal/lint/testdata/src", "-json", "./errcheck"}, &out, &errw)
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

// The fixture tree deliberately violates every analyzer; linting it
// must produce findings and exit 1, proving the binary's non-zero path.
func TestFixturesAreDirty(t *testing.T) {
	needGo(t)
	var out, errw strings.Builder
	code := run([]string{"-dir", "../../internal/lint/testdata/src", "./errcheck", "./tag"}, &out, &errw)
	if code != 1 {
		t.Fatalf("expected exit 1 on fixture packages, got %d (stderr: %s)", code, errw.String())
	}
	for _, want := range []string{"mpierrcheck", "mpitag", "finding(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fixture lint output missing %q:\n%s", want, out.String())
		}
	}
}

// -run narrows the suite to the named analyzers: a fixture tree dirty
// for mpitag lints clean under -run mpierrcheck, and an unknown name is
// an operational error, not a silent no-op.
func TestRunFilter(t *testing.T) {
	needGo(t)
	var out, errw strings.Builder
	code := run([]string{"-dir", "../../internal/lint/testdata/src", "-run", "mpitag", "./tag"}, &out, &errw)
	if code != 1 {
		t.Fatalf("-run mpitag on dirty tag fixtures exited %d (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(out.String(), "mpitag") {
		t.Errorf("filtered run missing mpitag findings:\n%s", out.String())
	}
	if strings.Contains(out.String(), "mpierrcheck") {
		t.Errorf("-run mpitag leaked other analyzers:\n%s", out.String())
	}

	out.Reset()
	errw.Reset()
	code = run([]string{"-dir", "../../internal/lint/testdata/src", "-run", "mpierrcheck", "./tag"}, &out, &errw)
	if code != 0 {
		t.Fatalf("-run mpierrcheck over tag fixtures exited %d:\n%s%s", code, out.String(), errw.String())
	}

	// The docs-CI invocation: pkgdoc alone over the real repo.
	out.Reset()
	errw.Reset()
	code = run([]string{"-dir", "../..", "-run", "pkgdoc", "./..."}, &out, &errw)
	if code != 0 {
		t.Errorf("-run pkgdoc over the repo exited %d:\n%s%s", code, out.String(), errw.String())
	}
}

func TestRunFilterUnknownName(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-run", "pkgdocs", "./..."}, &out, &errw); code != 2 {
		t.Fatalf("unknown analyzer name exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "pkgdocs") {
		t.Errorf("error does not name the unknown analyzer: %s", errw.String())
	}
	out.Reset()
	errw.Reset()
	if code := run([]string{"-run", " , ", "./..."}, &out, &errw); code != 2 {
		t.Fatal("empty -run selection accepted")
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}
