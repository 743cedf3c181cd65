package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/strategy"
)

// Control-hook semantics: a non-nil return stops the run at that generation
// boundary, persists a resume snapshot, and surfaces ErrStopped; resuming
// from the snapshot continues the trajectory bit-identically.

// stopAfter returns a Control hook that requests a stop at generation g,
// recording how many times it asked (a restart supervisor that wrongly
// re-runs a stopped job would drive the count past one).
func stopAfter(g int, stops *int) func(int) error {
	return func(gen int) error {
		if gen >= g {
			*stops++
			return errors.New("pause requested")
		}
		return nil
	}
}

func TestControlStopAndResumeSequential(t *testing.T) {
	const stopAt = 40
	base := testConfig(1, 8, 120)
	base.Seed = 81
	base.FullRecompute = true // counters then sum exactly across the cut

	full, err := RunSequential(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	sink := NewMemorySink()
	cfg.CheckpointSink = sink
	stops := 0
	cfg.Control = stopAfter(stopAt, &stops)
	if _, err := RunSequential(cfg); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run error = %v, want ErrStopped", err)
	}
	if stops != 1 {
		t.Fatalf("control hook asked to stop %d times, want 1", stops)
	}
	snap, err := sink.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Generation != stopAt {
		t.Fatalf("resume snapshot = %+v, want generation %d", snap, stopAt)
	}

	resume := base
	if err := resume.ResumeFrom(snap); err != nil {
		t.Fatal(err)
	}
	resume.Generations = base.Generations - int(snap.Generation)
	resumed, err := RunSequential(resume)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Final {
		if !full.Final[i].Equal(resumed.Final[i]) {
			t.Fatalf("final strategy %d differs after stop/resume", i)
		}
	}
	for i := range full.FinalFitness {
		if full.FinalFitness[i] != resumed.FinalFitness[i] {
			t.Fatalf("final fitness %d differs after stop/resume", i)
		}
	}
	if full.Counters != resumed.Counters {
		t.Fatalf("counters differ after stop/resume: %+v vs %+v", full.Counters, resumed.Counters)
	}
}

func TestControlStopAndResumeParallel(t *testing.T) {
	const stopAt = 20
	base := testConfig(1, 6, 60)
	base.Seed = 82
	base.FullRecompute = true

	full, err := RunSequential(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	sink := NewMemorySink()
	cfg.CheckpointSink = sink
	stops := 0
	cfg.Control = stopAfter(stopAt, &stops)
	if _, err := RunParallel(cfg, 4); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped parallel run error = %v, want ErrStopped", err)
	}
	snap, err := sink.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Generation != stopAt {
		t.Fatalf("resume snapshot = %+v, want generation %d", snap, stopAt)
	}

	resume := base
	if err := resume.ResumeFrom(snap); err != nil {
		t.Fatal(err)
	}
	resume.Generations = base.Generations - int(snap.Generation)
	resumed, err := RunParallel(resume, 3) // rank count may even change across the cut
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Final {
		if !full.Final[i].Equal(resumed.Final[i]) {
			t.Fatalf("final strategy %d differs after parallel stop/resume", i)
		}
	}
	for i := range full.FinalFitness {
		if full.FinalFitness[i] != resumed.FinalFitness[i] {
			t.Fatalf("final fitness %d differs after parallel stop/resume", i)
		}
	}
}

// A rank that fails at the stop's Barrier fails the run: the error names the
// rank and carries its fault, rather than reading as the stop. The receive
// deadline bounds the wait should a rank drop the barrier's error.
func TestControlStopBarrierFailureSurfaces(t *testing.T) {
	cfg := testConfig(1, 6, 60)
	cfg.Seed = 82
	cfg.FullRecompute = true
	cfg.RecvTimeout = 2 * time.Second
	stops := 0
	cfg.Control = stopAfter(40, &stops)
	if err := checkParallel(&cfg, 3); err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(3)
	if _, err := runWorld(cfg, world, world.Run); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run error = %v, want ErrStopped", err)
	}
	// Rank 1's last collective is the stop's Barrier, after a Gather and a
	// Bcast at each of the 41 meetings: number 83.
	barrier := world.RankCollectives(1)

	cfg.FaultPlan = mpi.NewFaultPlan().FailCollective(1, barrier)
	world = mpi.NewWorld(3)
	_, err := runWorld(cfg, world, world.Run)
	var rf *mpi.RankFailedError
	if !errors.Is(err, mpi.ErrInjectedFault) || !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("error = %v, want rank 1's injected fault at collective %d", err, barrier)
	}
	if !cfg.FaultPlan.Faults()[0].Fired() {
		t.Fatal("the barrier fault never fired")
	}
}

func TestControlStopWithoutSinkStillStops(t *testing.T) {
	cfg := testConfig(1, 4, 30)
	stops := 0
	cfg.Control = stopAfter(10, &stops)
	if _, err := RunSequential(cfg); !errors.Is(err, ErrStopped) {
		t.Fatalf("error = %v, want ErrStopped", err)
	}
}

// A world of one has nobody to tell of a stop, so it returns the stop at the
// boundary it was asked at — an egdserve pause of a one-rank job — rather
// than running on to a meeting: on a run that never changes an SSet, the
// next one is the end of a 2^40-generation window (2^31-1 where int is 32
// bits).
func TestOneRankStopIsPrompt(t *testing.T) {
	const stopAt = 5
	cfg := testConfig(1, 8, min(1<<40, math.MaxInt))
	cfg.PCRate, cfg.Mu = 0, 0
	cfg.CheckpointSink = NewMemorySink()
	stops := 0
	cfg.Control = stopAfter(stopAt, &stops)
	done := make(chan error, 1)
	go func() {
		_, err := RunSequential(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) || stops != 1 {
			t.Fatalf("error %v after %d stops, want ErrStopped after one", err, stops)
		}
	case <-time.After(time.Second):
		t.Fatal("a one-rank run asked to stop at generation 5 is still running after a second")
	}
	stoppedAt(t, cfg.CheckpointSink, stopAt)
}

func TestResilientDoesNotRestartOnControlStop(t *testing.T) {
	cfg := testConfig(1, 6, 50)
	cfg.Seed = 83
	cfg.CheckpointEvery = 5
	cfg.CheckpointSink = NewMemorySink()
	stops := 0
	cfg.Control = stopAfter(15, &stops)
	_, err := RunParallelResilient(cfg, 3, 3)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("supervised stop error = %v, want ErrStopped", err)
	}
	if stops != 1 {
		t.Fatalf("supervisor re-ran a stopped job: control asked to stop %d times", stops)
	}
}

func TestExactModeErrorPropagatesInsteadOfPanicking(t *testing.T) {
	// Regression: the payoff kernel used to panic when MarkovPayoffN failed mid-run.
	// Validate screens configurations up front, so force a runtime failure
	// the way a buggy caller could: an observer injecting a strategy from the
	// wrong memory space, which poisons the next generation's exact analysis.
	cfg := testConfig(2, 4, 3)
	cfg.ExactPayoffs = true
	wrong := strategy.AllC(strategy.NewSpace(1))
	cfg.Observer = ObserverFunc(func(gen int, pop *Population, ev Events) {
		if gen == 0 {
			pop.SetStrategy(0, wrong)
		}
	})
	_, err := RunSequential(cfg)
	if err == nil {
		t.Fatal("exact-mode analysis failure did not surface as an error")
	}
	if !strings.Contains(err.Error(), "exact payoff for pair") {
		t.Fatalf("error = %v, want a payoffTable.play exact-payoff error", err)
	}
}

func TestValidateRejectsNonFiniteParameters(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"pc rate", func(c *Config) { c.PCRate = nan }},
		{"mutation rate", func(c *Config) { c.Mu = nan }},
		{"beta", func(c *Config) { c.Beta = nan }},
		{"error rate", func(c *Config) { c.Rules.ErrorRate = nan }},
	}
	for _, tc := range cases {
		cfg := testConfig(1, 4, 10)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: NaN accepted by Validate", tc.name)
		}
	}
}

func TestValidateProbesExactModeComputability(t *testing.T) {
	// A well-formed exact-mode configuration must pass the up-front probe
	// at every supported memory depth.
	for mem := 1; mem <= 3; mem++ {
		cfg := testConfig(mem, 4, 10)
		cfg.ExactPayoffs = true
		if err := cfg.Validate(); err != nil {
			t.Fatalf("memory %d: exact-mode config rejected: %v", mem, err)
		}
	}
}
