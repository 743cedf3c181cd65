package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// helperEnv turns this test binary into egdrun itself: the launcher under
// test re-executes os.Executable() once per rank, and the children inherit
// the variable (the re-exec idiom of cmd/egdserve's crash tests).
const helperEnv = "EGDRUN_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestParseChaos(t *testing.T) {
	cases := []struct {
		spec string
		stop bool
		want chaosSpec
		bad  string // substring of the expected error; empty means success
	}{
		{spec: "2@500ms", want: chaosSpec{rank: 2, delay: 500 * time.Millisecond}},
		{spec: "1@0s", want: chaosSpec{rank: 1}},
		{spec: "3@1s:250ms", stop: true, want: chaosSpec{rank: 3, delay: time.Second, pause: 250 * time.Millisecond, stop: true}},
		{spec: "3@1s", stop: true, want: chaosSpec{rank: 3, delay: time.Second, pause: 2 * time.Second, stop: true}},
		{spec: "2", bad: "want rank@delay"},
		{spec: "two@1s", bad: "bad rank"},
		{spec: "2@soon", bad: "bad delay"},
		{spec: "2@1s:250ms", bad: "bad delay"}, // a pause is a stop-spec form only
		{spec: "2@1s:later", stop: true, bad: "bad pause"},
		{spec: "2@:1s", stop: true, bad: "bad delay"},
	}
	for _, tc := range cases {
		got, err := parseChaos(tc.spec, tc.stop)
		switch {
		case tc.bad == "" && (err != nil || got != tc.want):
			t.Errorf("parseChaos(%q, %v) = %+v, %v; want %+v", tc.spec, tc.stop, got, err, tc.want)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("parseChaos(%q, %v) error = %v, want one containing %q", tc.spec, tc.stop, err, tc.bad)
		}
	}
}

// Every rejection happens before the launcher spawns a process.
func TestRunRejectsBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"one rank", []string{"-np", "1"}, "-np must be >= 2"},
		{"no rank count", nil, "-np must be >= 2"},
		{"chaos kill without a restart budget", []string{"-np", "3", "-max-restarts", "0", "-chaos-kill", "1@1s"}, "need -max-restarts >= 1"},
		{"chaos stop without a receive deadline", []string{"-np", "3", "-chaos-stop", "1@1s:1s"}, "needs -worker-timeout"},
		{"chaos on the Nature rank", []string{"-np", "3", "-chaos-kill", "0@1s"}, "out of worker range [1,3)"},
		{"chaos past the last rank", []string{"-np", "3", "-chaos-stop", "3@1s"}, "out of worker range [1,3)"},
		{"malformed chaos spec", []string{"-np", "3", "-chaos-kill", "1"}, "want rank@delay"},
		{"tcp without a port", []string{"-np", "2", "-tcp", "localhost"}, "want host:basePort"},
		{"tcp with a bad port", []string{"-np", "2", "-tcp", "localhost:http"}, "bad base port"},
		{"bad fault spec", []string{"-np", "2", "-inject-fault", "rank=two"}, `fault spec rank "two"`},
		{"invalid simulation", []string{"-np", "2", "-memory", "9"}, "memory 9 out of"},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run%v error = %v, want one containing %q", tc.name, tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: a rejected invocation printed %q", tc.name, out.String())
		}
	}
}

// A positional argument egdrun does not take is refused before any flag is
// checked or process spawned, so a typo cannot launch a default fleet.
func TestRunRefusesStrayArguments(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-np", "1", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "bogus"`) || out.Len() != 0 {
		t.Fatalf("run with a stray argument: error %v, output %q", err, out.String())
	}
}

// A real three-process fleet over unix sockets: the Nature process's
// deterministic summary must be the in-process parallel engine's, line for
// line — for a plain run, and for the paper's Fig. 2 configuration, whose
// every non-default parameter (mixed strategies, execution errors, the
// unconditional Fermi rule, PC rate, beta) must cross the process boundary.
func TestFleetSummaryMatchesInProcessEngine(t *testing.T) {
	t.Setenv(helperEnv, "1")
	plain := sim.DefaultConfig(1, 8)
	plain.Generations = 150
	plain.Rules.Rounds = 20
	plain.Seed = 11
	plain.FullRecompute = true
	cases := []struct {
		name string
		args []string
		cfg  sim.Config
	}{
		{"plain", []string{"-ssets", "8", "-gens", "150", "-rounds", "20", "-seed", "11", "-full"}, plain},
		{"fig2", []string{"-ssets", "12", "-gens", "300", "-seed", "5", "-mixed", "-error", "0.01", "-fermi", "-pcrate", "1", "-beta", "50"},
			core.WSLSValidationConfig(12, 300, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			args := append([]string{"-np", "3", "-sock", t.TempDir(), "-timeout", "2m"}, tc.args...)
			if err := run(args, &out); err != nil {
				t.Fatalf("fleet failed: %v\noutput:\n%s", err, out.String())
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if !strings.HasPrefix(lines[0], "run: 3 ranks, 0 restarts, ") {
				t.Fatalf("first line = %q, want the fleet's run line", lines[0])
			}
			res, err := sim.RunParallel(tc.cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(lines[1:], "\n"), strings.Join(core.SummaryLines(res), "\n"); got != want {
				t.Fatalf("fleet summary differs from sim.RunParallel's:\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// The chaos schedule scripts/chaos_smoke.sh drives, in Go: a four-process
// fleet that loses a worker to SIGKILL, or has one frozen by SIGSTOP, is
// relaunched once from the Nature rank's latest snapshot, and its rank-0
// summary is the fault-free fleet's and the in-process engine's, line for
// line. The launcher runs as a child process (this binary, re-executed as
// egdrun) so its stderr — where it attributes every worker's exit — can be
// read.
func TestFleetChaosScheduleMatchesFaultFree(t *testing.T) {
	fleet := func(extra ...string) (summary []string, stderr string) {
		t.Helper()
		self, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		// Sized so the run is still going when the fault lands: -error keeps
		// every match out of the payoff table, which serves the noise-free
		// run in a fraction of the faults' schedule.
		args := append([]string{"-np", "4", "-ssets", "16", "-gens", "6000", "-rounds", "20", "-error", "0.01", "-seed", "7", "-full",
			"-checkpoint-every", "250", "-sock", t.TempDir(), "-timeout", "2m"}, extra...)
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), helperEnv+"=1")
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("fleet %v failed: %v\nstdout:\n%s\nstderr:\n%s", extra, err, out.String(), errb.String())
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if !strings.HasPrefix(lines[0], "run: ") {
			t.Fatalf("fleet %v: first line = %q, want the run line", extra, lines[0])
		}
		return lines, errb.String()
	}

	cfg := sim.DefaultConfig(1, 16)
	cfg.Generations = 6000
	cfg.Rules.Rounds = 20
	cfg.Rules.ErrorRate = 0.01
	cfg.Seed = 7
	cfg.FullRecompute = true
	res, err := sim.RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(core.SummaryLines(res), "\n")
	clean, _ := fleet()
	if got := strings.Join(clean[1:], "\n"); got != want {
		t.Errorf("fault-free fleet summary differs from sim.RunParallel's:\n%s\n--- want ---\n%s", got, want)
	}

	for _, tc := range []struct {
		name   string
		args   []string
		target string // the chaos target's exit, as the launcher reports it
	}{
		{"SIGKILL", []string{"-chaos-kill", "2@600ms"}, "egdrun: rank 2: killed by signal 9 (killed) (chaos target)\n"},
		{"SIGSTOP", []string{"-worker-timeout", "1s", "-chaos-stop", "3@600ms:1m"}, "egdrun: rank 3: killed by signal 9 (killed) (chaos target)\n"},
	} {
		chaos, stderr := fleet(tc.args...)
		if !strings.HasPrefix(chaos[0], "run: 4 ranks, 1 restarts, ") || strings.Count(stderr, "egdrun: relaunch ") != 1 {
			t.Errorf("%s: run line %q; want one relaunch, stderr:\n%s", tc.name, chaos[0], stderr)
		}
		// From a checkpoint or, where the fault lands before the first one
		// (a slow host, the race detector), from the start.
		for _, want := range []string{tc.target, "egdrun: relaunch 1: 4 ranks resume from "} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s: launcher did not report %q; stderr:\n%s", tc.name, strings.TrimSpace(want), stderr)
			}
		}
		if got := strings.Join(chaos[1:], "\n"); got != want {
			t.Errorf("%s: chaos fleet summary differs from the fault-free one:\n%s\n--- want ---\n%s", tc.name, got, want)
		}
	}
}
