package lint_test

import (
	"os/exec"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The fixture harness shells out to `go list -export`; skip everywhere
// the go tool itself is unavailable.
func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
}

func TestDeterminism(t *testing.T) {
	needGo(t)
	old := lint.DeterministicPaths
	lint.DeterministicPaths = append(append([]string(nil), old...), "fixtures/determinism")
	defer func() { lint.DeterministicPaths = old }()
	linttest.Run(t, lint.Determinism, "determinism")
}

// The determinism analyzer must stay silent outside the configured
// deterministic packages: the same fixture loaded without registering
// its path yields no findings.
func TestDeterminismScopedToConfiguredPackages(t *testing.T) {
	needGo(t)
	findings, err := lint.RunAnalyzers("testdata/src", []string{"./determinism"},
		[]*lint.Analyzer{lint.Determinism})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == "determinism" {
			t.Errorf("finding outside deterministic packages: %s", f)
		}
	}
}
