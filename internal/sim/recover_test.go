package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// assertSameOutcome pins the whole-run outputs a recovered run must
// reproduce bit for bit: final strategies, final fitness, cumulative
// counters, and both sampled series from generation 0 — every snapshot
// carries them and ResumeFrom restores them. Mean fitness is summed in one
// order at every rank count, so a run that changes it mid-run (a resume on
// more ranks) matches too.
func assertSameOutcome(t *testing.T, clean, got *Result) {
	t.Helper()
	if clean.Counters != got.Counters {
		t.Fatalf("counters differ: %+v vs %+v", clean.Counters, got.Counters)
	}
	assertSameFinal(t, clean, got)
	assertSameSeries(t, "mean fitness", clean.MeanFitness, got.MeanFitness, 0)
	assertSameSeries(t, "cooperation", clean.Cooperation, got.Cooperation, 0)
}

// The acceptance scenario for the fault-tolerant engine: kill worker rank 2
// at the first meeting past generation 300 — a run served by type meets
// only to fill its payoff table — with CheckpointEvery=100, and the
// supervisor must restore the latest snapshot and finish with a Result —
// strategies, counters, fitness — bit-identical to a run that never saw the
// fault.
func TestResilientKillRecoversBitExact(t *testing.T) {
	cfg := testConfig(1, 8, 600)
	cfg.Seed = 301
	cfg.FullRecompute = true

	clean, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	faulty := cfg
	faulty.CheckpointEvery = 100
	faulty.CheckpointSink = NewMemorySink()
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(2, killAt(meetingsOf(t, cfg), 4, 2, 300))
	faulty.EventLog = trace.NewEventLog()
	res, err := RunParallelResilient(faulty, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if !faulty.FaultPlan.Faults()[0].Fired() {
		t.Fatal("scripted kill never fired")
	}
	assertSameOutcome(t, clean, res)

	if n := faulty.EventLog.Count(trace.EventFault); n != 1 {
		t.Errorf("fault events = %d, want 1", n)
	}
	if n := faulty.EventLog.Count(trace.EventRecovery); n != 1 {
		t.Errorf("recovery events = %d, want 1", n)
	}
	if n := faulty.EventLog.Count(trace.EventCheckpoint); n < 6 {
		t.Errorf("checkpoint events = %d, want >= 6 (600 gens / every 100)", n)
	}
}

// Parallel checkpoint→resume parity: run N generations with periodic
// snapshots, then resume the latest snapshot for the remaining M on a
// different rank count; the stitched run must equal the uninterrupted N+M
// run bit for bit, counters included.
func TestParallelCheckpointResumeParity(t *testing.T) {
	cfg := testConfig(1, 8, 90)
	cfg.Seed = 302
	cfg.FullRecompute = true

	full, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	sink := NewMemorySink()
	first := cfg
	first.Generations = 50
	first.CheckpointEvery = 25
	first.CheckpointSink = sink
	if _, err := RunParallel(first, 4); err != nil {
		t.Fatal(err)
	}
	if sink.Saves() != 2 {
		t.Fatalf("saves = %d, want 2 (generations 25 and 50)", sink.Saves())
	}
	snap, err := sink.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 50 {
		t.Fatalf("latest snapshot at generation %d, want 50", snap.Generation)
	}

	second := cfg
	if err := second.ResumeFrom(snap); err != nil {
		t.Fatal(err)
	}
	second.Generations = 40
	resumed, err := RunParallel(second, 6)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, full, resumed)
}

// A stalled worker (delayed send outlasting the receive deadline) must be
// detected as a timeout, attributed to a rank, and recovered from.
func TestResilientRecoversFromStalledWorker(t *testing.T) {
	cfg := testConfig(1, 6, 60)
	cfg.Seed = 303
	cfg.FullRecompute = true

	clean, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}

	faulty := cfg
	faulty.CheckpointEvery = 10
	faulty.CheckpointSink = NewMemorySink()
	faulty.RecvTimeout = 150 * time.Millisecond
	// The stall is windowed on the send counter, not one-shot, so restarts
	// that pass through send 40 stall again; each attempt still advances
	// the checkpoint frontier, so a generous restart budget converges.
	faulty.FaultPlan = mpi.NewFaultPlan().Delay(2, 40, 1, 600*time.Millisecond)
	faulty.EventLog = trace.NewEventLog()
	res, err := RunParallelResilient(faulty, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 1 {
		t.Fatal("stall never triggered a recovery")
	}
	for i := range clean.Final {
		if !clean.Final[i].Equal(res.Final[i]) {
			t.Fatalf("final strategy %d differs after stall recovery", i)
		}
	}
	// The detection path must have been a timeout, not a generic abort.
	events := faulty.EventLog.Events()
	sawTimeout := false
	for _, e := range events {
		if e.Kind == trace.EventFault && strings.Contains(e.Detail, "timed out") {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatalf("no timeout fault recorded; events: %+v", events)
	}
}

// Incremental (dirty-tracking) mode also recovers exactly — the resume
// replays every pair once at the restore generation, which inflates
// GamesPlayed but leaves the trajectory untouched for deterministic games.
func TestResilientIncrementalModeRecovers(t *testing.T) {
	cfg := testConfig(1, 8, 300)
	cfg.Seed = 305

	clean, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	faulty := cfg
	faulty.CheckpointEvery = 50
	faulty.CheckpointSink = NewMemorySink()
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(2, killAt(meetingsOf(t, cfg), 4, 2, 150))
	res, err := RunParallelResilient(faulty, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || !faulty.FaultPlan.Faults()[0].Fired() {
		t.Fatalf("restarts = %d, kill fired = %v; want one recovery", res.Restarts, faulty.FaultPlan.Faults()[0].Fired())
	}
	for i := range clean.Final {
		if !clean.Final[i].Equal(res.Final[i]) {
			t.Fatalf("final strategy %d differs", i)
		}
	}
	for i := range clean.FinalFitness {
		if clean.FinalFitness[i] != res.FinalFitness[i] {
			t.Fatalf("final fitness %d differs", i)
		}
	}
	if clean.Counters.PCEvents != res.Counters.PCEvents ||
		clean.Counters.Adoptions != res.Counters.Adoptions ||
		clean.Counters.Mutations != res.Counters.Mutations {
		t.Fatalf("event counters differ: %+v vs %+v", clean.Counters, res.Counters)
	}
	if res.Counters.GamesPlayed < clean.Counters.GamesPlayed {
		t.Fatalf("recovered run played fewer games (%d) than clean (%d)",
			res.Counters.GamesPlayed, clean.Counters.GamesPlayed)
	}
}

func TestResilientGivesUpWhenBudgetExhausted(t *testing.T) {
	cfg := testConfig(1, 6, 50)
	cfg.Seed = 306
	// Two scripted kills with staggered thresholds (a shared threshold
	// would consume both on the same send): the first takes down the
	// initial run, the second the single permitted restart.
	cfg.FaultPlan = mpi.NewFaultPlan().Kill(1, 5).Kill(1, 6)
	cfg.EventLog = trace.NewEventLog()
	_, err := RunParallelResilient(cfg, 3, 1)
	if err == nil {
		t.Fatal("exhausted restart budget did not surface an error")
	}
	if !errors.Is(err, mpi.ErrInjectedFault) {
		t.Fatalf("give-up error lost the root cause: %v", err)
	}
	if n := cfg.EventLog.Count(trace.EventGiveUp); n != 1 {
		t.Errorf("give-up events = %d, want 1", n)
	}
	if n := cfg.EventLog.Count(trace.EventFault); n != 2 {
		t.Errorf("fault events = %d, want 2", n)
	}
}

func TestResilientRejectsBadInputsUpFront(t *testing.T) {
	cfg := testConfig(1, 6, 10)
	if _, err := RunParallelResilient(cfg, 0, 3); err == nil {
		t.Fatal("0 ranks accepted")
	}
	bad := cfg
	bad.Memory = 0
	if _, err := RunParallelResilient(bad, 3, 3); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestResilientRejectsForeignCheckpoint(t *testing.T) {
	// A sink holding a snapshot from a different run must fail the restart
	// fast instead of silently forking the trajectory.
	cfg := testConfig(1, 4, 40)
	cfg.Seed = 307
	sink := NewMemorySink()
	sp := strategy.NewSpace(1)
	foreign := &checkpoint.Snapshot{
		Generation: 10, Seed: 999, Memory: 1,
		Strategies: []strategy.Strategy{
			strategy.AllC(sp), strategy.AllD(sp), strategy.TFT(sp), strategy.WSLS(sp),
		},
	}
	if err := sink.Save(foreign); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = 50 // beyond the run: the foreign snapshot survives
	cfg.CheckpointSink = sink
	cfg.FaultPlan = mpi.NewFaultPlan().Kill(1, 1)
	_, err := RunParallelResilient(cfg, 3, 3)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("foreign checkpoint not rejected: %v", err)
	}
}

func TestResilientWithoutFaultsIsPlainRun(t *testing.T) {
	cfg := testConfig(1, 6, 40)
	cfg.Seed = 308
	clean, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallelResilient(cfg, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0", res.Restarts)
	}
	assertSameTrajectory(t, clean, res)
}
