package lint_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Check shells out to `go list -export`; skip everywhere the go tool
// itself is unavailable.
func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
}

// The whole repository must lint clean. This is the one runner of the
// check: `go test ./...` (and `make lint`, which runs only this test)
// fails on a finding. Each finding is printed on a line of its own, so
// CI's problem matcher (.github/egdlint-problem-matcher.json) annotates
// it in the PR diff.
func TestRepoLintsClean(t *testing.T) {
	needGo(t)
	findings, err := lint.Check("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		lines := make([]string, len(findings))
		for i, f := range findings {
			lines[i] = f.String()
		}
		t.Errorf("%d finding(s) in the repo:\n%s", len(findings), strings.Join(lines, "\n"))
	}
}

const fixtureDir = "testdata/src"

// checkFixtures runs Check over the fixture package, registered as
// deterministic for the length of the test when deterministic is set.
func checkFixtures(t *testing.T, deterministic bool) []lint.Finding {
	t.Helper()
	needGo(t)
	if deterministic {
		old := lint.DeterministicPaths
		lint.DeterministicPaths = append(append([]string(nil), old...), "fixtures/determinism")
		t.Cleanup(func() { lint.DeterministicPaths = old })
	}
	findings, err := lint.Check(fixtureDir, []string{"./determinism"})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// wantRe matches a fixture line's expectation: // want `regexp`.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// Every fixture line carrying a want comment yields one determinism
// finding whose message matches it, and no other line yields any: the
// allow directive and the order-insensitive map ranges stay silent.
func TestDeterminism(t *testing.T) {
	findings := checkFixtures(t, true)
	type at struct {
		file string
		line int
	}
	wants := make(map[at]*regexp.Regexp)
	files, err := filepath.Glob(filepath.Join(fixtureDir, "determinism", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files (%v)", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants[at{filepath.Base(name), i + 1}] = regexp.MustCompile(m[1])
			}
		}
	}
	for _, f := range findings {
		key := at{filepath.Base(f.Pos.Filename), f.Pos.Line}
		if re := wants[key]; re == nil || f.Rule != "determinism" || !re.MatchString(f.Message) {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		delete(wants, key)
	}
	for key, re := range wants {
		t.Errorf("%s:%d: no determinism finding matching %q", key.file, key.line, re)
	}
}

// The rules stay silent outside the configured deterministic packages:
// the same fixture checked without registering its path yields nothing.
func TestDeterminismScopedToConfiguredPackages(t *testing.T) {
	for _, f := range checkFixtures(t, false) {
		t.Errorf("finding outside deterministic packages: %s", f)
	}
}

// The fixtures are dirty, and every finding, as TestRepoLintsClean's
// failure prints it (go test indents each continuation line of an error),
// is parsed by the problem matcher into its file, line, column and rule.
func TestFixturesAreDirty(t *testing.T) {
	findings := checkFixtures(t, true)
	if len(findings) == 0 {
		t.Fatal("no findings on the dirty fixtures")
	}
	for _, f := range findings {
		checkMatcherReads(t, f)
	}
}

// checkMatcherReads fails t unless the regex in
// .github/egdlint-problem-matcher.json parses f, indented as go test
// prints an error's continuation lines, into its file, line, column,
// rule and message.
func checkMatcherReads(t *testing.T, f lint.Finding) {
	t.Helper()
	raw, err := os.ReadFile("../../.github/egdlint-problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct{ Regexp string }
		}
	}
	if err := json.Unmarshal(raw, &matcher); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(matcher.ProblemMatcher[0].Pattern[0].Regexp)
	m := re.FindStringSubmatch("        " + f.String())
	if m == nil || m[1] != f.Pos.Filename || m[2] != strconv.Itoa(f.Pos.Line) ||
		m[3] != strconv.Itoa(f.Pos.Column) || m[4] != f.Rule || m[5] != f.Message {
		t.Errorf("problem matcher misreads %q: %q", f, m)
	}
}

// writeModule writes files (slash paths to sources) into a scratch
// module named repro, so their packages sit at the repo's import paths,
// and returns its directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files["go.mod"] = "module repro\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkModule runs Check over all of a scratch module (writeModule) and
// returns the module's directory with the findings.
func checkModule(t *testing.T, files map[string]string) (string, []lint.Finding) {
	t.Helper()
	needGo(t)
	dir := writeModule(t, files)
	findings, err := lint.Check(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return dir, findings
}

// Each violation the check exists to catch, seeded into the package of
// the module it would break, yields exactly one determinism finding that
// the problem matcher annotates; a case with no want is a near miss that
// yields none.
func TestSeededViolationsFail(t *testing.T) {
	const fused = `^float product added unrounded in a deterministic package`
	cases := []struct {
		name, file, src, want string
	}{
		{"wall_clock_in_sim", "internal/sim/nature.go", `package sim

import "time"

func natureDecision(gen int) int64 { return time.Now().UnixNano() + int64(gen) }
`, `^time\.Now reads the wall clock`},
		{"global_rand_in_game", "internal/game/payoff.go", `package game

import "math/rand"

func StandardPayoff() float64 { return float64(rand.Intn(4)) }
`, `^global rand\.Intn in a deterministic package`},
		{"unsorted_map_range_in_server", "internal/server/recovery.go", `package server

import "fmt"

type manager struct{ jobs map[string]int }

func (m *manager) snapshotRecords() []string {
	var out []string
	for id, state := range m.jobs {
		out = append(out, fmt.Sprintf("%s=%d", id, state))
	}
	return out
}
`, `^map iteration order feeds computation`},
		{"float_sum_over_map_in_checkpoint", "internal/checkpoint/checkpoint.go", `package checkpoint

func Write(fitness map[int]float64) float64 {
	total := 0.0
	for _, f := range fitness {
		total += f
	}
	return total
}
`, `^map iteration order feeds computation`},
		{"product_plus_in_replicator", "internal/replicator/replicator.go", `package replicator

func Growth(s, f, mean float64) float64 { return 1 + s*(f-mean) }
`, fused},
		{"product_minus_in_analysis", "internal/analysis/fixation.go", `package analysis

func Residual(x, y, z float64) float64 { return x*y - z }
`, fused},
		{"product_add_assign_in_cluster", "internal/cluster/kmeans.go", `package cluster

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
`, fused},
		{"product_sub_assign_in_server", "internal/server/quota.go", `package server

func drain(tokens, elapsed, rate float64) float64 {
	tokens -= elapsed * rate
	return tokens
}
`, fused},
		{"rounded_product_in_replicator", "internal/replicator/replicator.go", `package replicator

func Growth(s, f, mean float64) float64 { return 1 + float64(s*(f-mean)) }
`, ""},
		{"integer_product_in_sim", "internal/sim/nature.go", `package sim

func offset(gen, stride, base int) int { return gen*stride + base }
`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir, findings := checkModule(t, map[string]string{c.file: c.src})
			if c.want == "" {
				if len(findings) != 0 {
					t.Fatalf("got %v, want no finding", findings)
				}
				return
			}
			if len(findings) != 1 {
				t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
			}
			f := findings[0]
			if f.Rule != "determinism" || f.Pos.Filename != filepath.Join(dir, filepath.FromSlash(c.file)) ||
				!regexp.MustCompile(c.want).MatchString(f.Message) {
				t.Errorf("got %s, want a determinism finding in %s matching %q", f, c.file, c.want)
			}
			checkMatcherReads(t, f)
		})
	}
}

// Every entry of DeterministicPaths names a package of the repo that the
// rules reach: a misspelt path would silently exempt the package it
// meant. A wall-clock read in each yields one finding, and the same read
// in a package outside the list (the transport) yields none.
func TestEveryDeterministicPathIsChecked(t *testing.T) {
	files := map[string]string{}
	for _, path := range append([]string{"repro/internal/mpi"}, lint.DeterministicPaths...) {
		rel := strings.TrimPrefix(path, "repro/")
		if src, _ := filepath.Glob(filepath.Join("../..", filepath.FromSlash(rel), "*.go")); len(src) == 0 {
			t.Errorf("%s: no such package in the repo", path)
		}
		files[rel+"/clock.go"] = "package " + filepath.Base(rel) +
			"\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n"
	}
	dir, findings := checkModule(t, files)
	got := map[string]int{}
	for _, f := range findings {
		rel, err := filepath.Rel(dir, filepath.Dir(f.Pos.Filename))
		if err != nil {
			t.Fatal(err)
		}
		got["repro/"+filepath.ToSlash(rel)]++
	}
	for _, path := range lint.DeterministicPaths {
		if got[path] != 1 {
			t.Errorf("%s: %d findings, want 1", path, got[path])
		}
		delete(got, path)
	}
	for path, n := range got {
		t.Errorf("%s: %d findings outside the deterministic packages", path, n)
	}
}

// A package that does not type-check is an error, not a clean result, so
// TestRepoLintsClean cannot pass on a tree the check never read.
func TestCheckRejectsBrokenPackage(t *testing.T) {
	needGo(t)
	dir := writeModule(t, map[string]string{
		"internal/sim/sim.go": "package sim\n\nfunc F() int { return \"not an int\" }\n",
	})
	findings, err := lint.Check(dir, []string{"./..."})
	if err == nil || !strings.Contains(err.Error(), "repro/internal/sim") {
		t.Fatalf("Check on a package that does not type-check = %v, %v; want an error naming it", findings, err)
	}
}
