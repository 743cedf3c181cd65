package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
)

// deterministicLines keeps the report lines that are pure functions of the
// trajectory (everything from the work counters down, minus file notices).
func deterministicLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		for _, prefix := range []string{"work:", "final ", "WSLS ", "distinct ", "most abundant", "   "} {
			if strings.HasPrefix(line, prefix) {
				keep = append(keep, line)
			}
		}
	}
	return strings.Join(keep, "\n")
}

// -checkpoint writes the whole run — through the atomic sink, onto the path
// the periodic checkpoints share — and -resume continues it: the two
// segments' report equals the uninterrupted run's, series tail included.
func TestRunCheckpointThenResumeContinuesTheRun(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	common := []string{"-memory", "1", "-ssets", "8", "-rounds", "20", "-full", "-seed", "43"}
	runArgs := func(extra ...string) string {
		t.Helper()
		var out strings.Builder
		if err := run(append(append([]string{}, common...), extra...), &out); err != nil {
			t.Fatalf("run %v failed: %v\noutput:\n%s", extra, err, out.String())
		}
		return out.String()
	}
	runArgs("-gens", "60", "-checkpoint", ckpt, "-checkpoint-every", "25")
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 60 || len(snap.MeanFitness) != 60 || len(snap.Cooperation) != 60 || len(snap.Fitness) != 8 || snap.Counters == nil {
		t.Fatalf("final checkpoint at generation %d carries %d/%d series points, %d fitness values, counters %v",
			snap.Generation, len(snap.MeanFitness), len(snap.Cooperation), len(snap.Fitness), snap.Counters)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want only the checkpoint", len(entries))
	}
	resumed := runArgs("-gens", "40", "-resume", ckpt)
	whole := runArgs("-gens", "100")
	if got, want := deterministicLines(resumed), deterministicLines(whole); got != want || !strings.Contains(got, "(gen 99)") {
		t.Fatalf("resumed report differs from the uninterrupted run's:\n%s\n--- want ---\n%s", got, want)
	}
}

// A scripted kill takes the checkpoint-restart path: one restart. The run
// is served by type, so a worker sends only
// when its ranks meet to fill the payoff table — at generations 0, 15, 51–54,
// 104, 148, 200, … and the end — once each as rank 2 of 4: its 8th send is
// generation 148's, past the checkpoint at 100.
func TestRunRestartSmoke(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var out strings.Builder
	err := run([]string{
		"-memory", "1", "-ssets", "8", "-gens", "400", "-rounds", "20",
		"-ranks", "4", "-full", "-seed", "42",
		"-checkpoint-every", "100", "-checkpoint-file", ckpt,
		"-inject-fault", "rank=2,after=8",
	}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	if got := out.String(); !strings.Contains(got, "\nfault tolerance: 1 restarts\n") {
		t.Errorf("output missing the one-restart line:\n%s", got)
	}
}

// -trace writes one CSV row per generation under a header naming the
// columns the Observer fills.
func TestRunTraceCSVHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	var out strings.Builder
	if err := run([]string{"-ssets", "8", "-gens", "30", "-rounds", "20", "-trace", path}, &out); err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if want := "generation,cooperation,distinct_strategies,pc_event,adopted,mutated"; lines[0] != want || len(lines) != 31 {
		t.Fatalf("trace has %d lines under header %q, want 31 under %q", len(lines), lines[0], want)
	}
}

// A positional argument no command takes is refused before anything runs:
// a misspelt subcommand does not fall through to the default simulation, a
// subcommand goes first, and a word after a subcommand's flags is not
// ignored. strat takes exactly one strategy.
func TestRunRefusesStrayArguments(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"misspelt subcommand", []string{"typo"}, `unexpected argument "typo"`},
		{"subcommand after flags", []string{"-gens", "10", "scale"}, `unexpected argument "scale"`},
		{"scale", []string{"scale", "-table", "1", "bogus"}, `unexpected argument "bogus"`},
		{"viz", []string{"viz", "-run", "-gens", "10", "bogus"}, `unexpected argument "bogus"`},
		{"sweep", []string{"sweep", "-gens", "10", "bogus"}, `unexpected argument "bogus"`},
		{"strat with two strategies", []string{"strat", "WSLS", "bogus"}, "need exactly one strategy"},
		{"strat with none", []string{"strat"}, "need exactly one strategy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) || out.Len() > 0 {
				t.Errorf("run%q: error %v and %d bytes of output, want only an error containing %q", tc.args, err, out.Len(), tc.want)
			}
		})
	}
}

func TestRunWorkerTimeoutNeedsParallelEngine(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-gens", "10", "-worker-timeout", "1s"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-ranks >= 2") {
		t.Fatalf("sequential -worker-timeout accepted: %v", err)
	}
}

// -metrics writes a snapshot and prints the per-phase summary table.
func TestRunMetricsSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var out strings.Builder
	err := run([]string{
		"-memory", "1", "-ssets", "10", "-gens", "100", "-rounds", "20",
		"-ranks", "3", "-seed", "7", "-metrics", path,
	}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"phase summary",
		"game_play",
		"compute/comm split:",
		"metrics (json) -> " + path,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("snapshot has no counters")
	}
}

// Two same-seed runs produce byte-identical snapshots once wall-clock
// fields are stripped — the determinism contract of -metrics output.
func TestRunMetricsDeterministic(t *testing.T) {
	capture := func(path string) []byte {
		var out strings.Builder
		err := run([]string{
			"-memory", "1", "-ssets", "10", "-gens", "150", "-rounds", "20",
			"-ranks", "4", "-seed", "11", "-metrics", path,
		}, &out)
		if err != nil {
			t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		det, err := json.Marshal(snap.Deterministic())
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	dir := t.TempDir()
	a := capture(filepath.Join(dir, "a.json"))
	b := capture(filepath.Join(dir, "b.json"))
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// -metrics-format prom emits Prometheus text exposition format.
func TestRunMetricsPrometheusFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	var out strings.Builder
	err := run([]string{
		"-memory", "1", "-ssets", "8", "-gens", "50", "-rounds", "20",
		"-ranks", "2", "-seed", "3", "-metrics", path, "-metrics-format", "prom",
	}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE egd_games_played_total counter",
		`egd_comm_sent_messages_total{rank="0",tag="coll_bcast"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

func TestRunMetricsRejectsUnknownFormat(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-gens", "10", "-metrics", "x.json", "-metrics-format", "xml"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-metrics-format") {
		t.Fatalf("unknown format accepted: %v", err)
	}
}

// A -trace or -metrics target that cannot take the bytes fails the run
// instead of leaving a short file behind an exit 0.
func TestRunReportsOutputWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	for _, flag := range []string{"-trace", "-metrics"} {
		var out strings.Builder
		if err := run([]string{"-ssets", "8", "-gens", "10", flag, "/dev/full"}, &out); err == nil {
			t.Errorf("%s /dev/full: write failure not reported", flag)
		}
	}
}

// The payoff table needs no flag: a default-mode run with -metrics prints its
// hit line, a noisy one and an error-free mixed one (keyed by SSet) do not,
// and the science output is the same with metrics on or off.
func TestRunPayoffCacheSmoke(t *testing.T) {
	dir := t.TempDir()
	capture := func(extra ...string) string {
		var out strings.Builder
		args := []string{
			"-memory", "1", "-ssets", "10", "-gens", "200", "-rounds", "20",
			"-full", "-seed", "9",
		}
		args = append(args, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
		}
		return out.String()
	}
	plain := capture()
	cached := capture("-metrics", filepath.Join(dir, "m.json"))
	if !strings.Contains(cached, "payoff cache:") || strings.Contains(cached, "payoff cache: 0 hits") {
		t.Errorf("cache summary line missing or empty:\n%s", cached)
	}
	if noisy := capture("-error", "0.01", "-metrics", filepath.Join(dir, "n.json")); strings.Contains(noisy, "payoff cache:") {
		t.Errorf("noisy run reports a payoff table:\n%s", noisy)
	}
	if mixed := capture("-mixed", "-metrics", filepath.Join(dir, "x.json")); strings.Contains(mixed, "payoff cache:") {
		t.Errorf("error-free mixed run, keyed by SSet, reports cache stats:\n%s", mixed)
	}
	if m, err := os.ReadFile(filepath.Join(dir, "x.json")); err != nil || strings.Contains(string(m), "egd_payoff_cache") {
		t.Errorf("error-free mixed run's metrics (%v) carry payoff cache series:\n%s", err, m)
	}
	// The science output (final fitness, cooperation, abundance) must be
	// byte-identical with and without metrics; strip the metrics-only lines
	// before comparing.
	tail := func(s string) string {
		i := strings.Index(s, "final mean fitness")
		if i < 0 {
			t.Fatalf("no final fitness line:\n%s", s)
		}
		s = s[i:]
		if j := strings.Index(s, "metrics ("); j >= 0 {
			s = s[:j]
		}
		return s
	}
	if tail(plain) != tail(cached) {
		t.Errorf("metrics changed the science output:\n--- off ---\n%s\n--- on ---\n%s", tail(plain), tail(cached))
	}
}

// The table is sized by the population and always on: the capacity flag left
// with the LRU, the switch with the table becoming the default, and each is an
// unknown flag now, not a silently ignored one.
func TestRunRejectsPayoffCacheSizeFlag(t *testing.T) {
	for _, args := range [][]string{{"-payoff-cache-size", "4096"}, {"-payoff-cache"}} {
		var out strings.Builder
		err := run(append([]string{"-gens", "10"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Fatalf("%s accepted: %v", args[0], err)
		}
	}
}

// Sequential runs collect phase metrics too.
func TestRunMetricsSequential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var out strings.Builder
	err := run([]string{
		"-memory", "1", "-ssets", "8", "-gens", "50", "-rounds", "20",
		"-seed", "5", "-metrics", path,
	}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "nature_step") {
		t.Errorf("sequential phase summary missing nature_step:\n%s", out.String())
	}
}
