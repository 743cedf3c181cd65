package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// The resume contract, engine-level: a run interrupted at a generation
// boundary and resumed through Config.ResumeFrom from one of its own
// snapshots returns the Result the uninterrupted run returns — final
// strategies and fitness, counters, and both sampled series from generation
// 0 — at whichever rank count it ran and however it was interrupted.

// assertSameResult is the strict form of assertSameOutcome: every
// deterministic field of the Result bit for bit, mean fitness included.
// GamesPlayed may exceed the reference's on an incremental run (a resume
// replays every pair once); with FullRecompute it must match.
func assertSameResult(t *testing.T, want, got *Result, fullRecompute bool) {
	t.Helper()
	w, g := want.Counters, got.Counters
	if g.GamesPlayed < w.GamesPlayed || (fullRecompute && g.GamesPlayed != w.GamesPlayed) {
		t.Fatalf("games played %d vs uninterrupted %d", g.GamesPlayed, w.GamesPlayed)
	}
	g.GamesPlayed = w.GamesPlayed
	if w != g {
		t.Fatalf("event counters differ: %+v vs %+v", w, g)
	}
	assertSameFinal(t, want, got)
	assertSameSeries(t, "mean fitness", want.MeanFitness, got.MeanFitness, 0)
	assertSameSeries(t, "cooperation", want.Cooperation, got.Cooperation, 0)
}

// resumeFrom continues base from the sink's latest snapshot to the end of
// base's window, on whatever run runs it on.
func resumeFrom(t *testing.T, base Config, sink CheckpointSink, run func(Config) *Result) *Result {
	t.Helper()
	snap, err := sink.Latest()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot to resume from: %v", err)
	}
	cfg := base
	if err := cfg.ResumeFrom(snap); err != nil {
		t.Fatal(err)
	}
	cfg.Generations = base.Generations - int(snap.Generation)
	return run(cfg)
}

// resumeOn is resumeFrom on an in-process engine of ranks ranks.
func resumeOn(t *testing.T, base Config, sink CheckpointSink, ranks int) *Result {
	t.Helper()
	return resumeFrom(t, base, sink, func(cfg Config) *Result {
		res, err := RunParallel(cfg, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}

func TestInterruptedRunReturnsTheUninterruptedResult(t *testing.T) {
	const gens, every = 120, 25
	engines := []int{1, 3, 5} // rank counts; 1 is the reference
	pick := rng.New(1409)
	// pending lists the generations that start with a changed SSet still to
	// be replayed (the reference run fills it in).
	var pending []int

	interruptions := []struct {
		name        string
		needsWorker bool
		run         func(t *testing.T, base Config, ei int) *Result
	}{
		{"control stop", false, func(t *testing.T, base Config, ei int) *Result {
			stopAt := 1 + pick.Intn(gens-1)
			cfg, stops := base, 0
			cfg.CheckpointSink = NewMemorySink()
			cfg.Control = stopAfter(stopAt, &stops)
			if res, err := RunParallel(cfg, engines[ei]); !errors.Is(err, ErrStopped) || res != nil {
				t.Fatalf("stop at %d: result %v, error %v; want nil, ErrStopped", stopAt, res, err)
			}
			return resumeOn(t, base, cfg.CheckpointSink, engines[ei])
		}},
		{"periodic checkpoint, other rank count", false, func(t *testing.T, base Config, ei int) *Result {
			// The first segment dies (here: simply ends) past its last
			// periodic checkpoint, on the next engine of the table.
			first := base
			first.Generations = every + 1 + pick.Intn(gens-every-1)
			first.CheckpointEvery = every
			first.CheckpointSink = NewMemorySink()
			if _, err := RunParallel(first, engines[(ei+1)%len(engines)]); err != nil {
				t.Fatal(err)
			}
			return resumeOn(t, base, first.CheckpointSink, engines[ei])
		}},
		// A kill needs a worker to kill.
		{"supervised kill", true, func(t *testing.T, base Config, ei int) *Result {
			cfg := base
			cfg.CheckpointEvery = every
			cfg.CheckpointSink = NewMemorySink()
			// A worker sends only at a meeting: it dies entering one past the
			// first checkpoint, or the end of the window's.
			meets := meetingsOf(t, cfg)
			late := append(meets[before(meets, every):], gens)
			kill := killAt(meets, engines[ei], 1, late[pick.Intn(len(late))])
			cfg.FaultPlan = mpi.NewFaultPlan().Kill(1, kill)
			res, err := RunParallelResilient(cfg, engines[ei], 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 || !cfg.FaultPlan.Faults()[0].Fired() {
				t.Fatalf("restarts = %d, kill fired = %v; want one recovery", res.Restarts, cfg.FaultPlan.Faults()[0].Fired())
			}
			return res
		}},
		// The supervisor restarts from a snapshot taken with changed SSets
		// still to be replayed: a run keyed by SSet plays each of their
		// cells again from the generation the uninterrupted run played it
		// in, which the snapshot records.
		{"restart with changed SSets pending", true, func(t *testing.T, base Config, ei int) *Result {
			g := pending[pick.Intn(len(pending))]
			cfg := base
			cfg.CheckpointEvery = g
			cfg.CheckpointSink = NewMemorySink()
			// Worker 1 dies entering the first meeting at or past g, after
			// the snapshot at g.
			kill := killAt(meetingsOf(t, cfg), engines[ei], 1, g)
			cfg.FaultPlan = mpi.NewFaultPlan().Kill(1, kill)
			res, err := RunParallelResilient(cfg, engines[ei], 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 || !cfg.FaultPlan.Faults()[0].Fired() {
				t.Fatalf("restarts = %d, kill fired = %v; want one recovery", res.Restarts, cfg.FaultPlan.Faults()[0].Fired())
			}
			return res
		}},
	}

	// The noisy rows key the table by SSet even with the payoff cache, and
	// each cell holds the match of the generation it was played in: an
	// incremental resume must play it again from that generation.
	for _, noise := range []float64{0, 0.01} {
		for _, full := range []bool{false, true} {
			// 9 SSets and 16 rounds keep S-1 and the match length powers of
			// two: every payoff, row sum and population total is then a
			// dyadic rational float64 holds exactly, the one rounding left is
			// the final division, and the mean-fitness series is
			// bit-identical across rank counts — so a single one-rank run
			// is the reference for the whole table.
			base := testConfig(1, 9, gens)
			base.Rules.Rounds = 16
			base.Rules.ErrorRate = noise
			base.Seed = 1410
			base.FullRecompute = full
			uncached := reference(base)
			ref := uncached
			pending = nil
			ref.Observer = func(gen int, _ *Population, ev Events) {
				if (ev.Adopted || ev.MutationOccurred) && gen+1 < gens {
					pending = append(pending, gen+1)
				}
			}
			want, err := RunSequential(ref)
			if err != nil {
				t.Fatal(err)
			}
			if want.Counters.Adoptions == 0 || want.Counters.Mutations == 0 {
				t.Fatalf("degenerate reference run: %+v", want.Counters)
			}
			row := fmt.Sprintf("full=%v", full)
			if noise != 0 {
				row += fmt.Sprintf("/error=%v", noise)
			}
			// Each interruption runs twice: on the reference kernel, as the
			// reference ran, and with the payoff table — every segment and
			// restart of the cached run must still land on the uncached,
			// uninterrupted result.
			for ei, ranks := range engines {
				for _, in := range interruptions {
					if in.needsWorker && ranks < 2 {
						continue
					}
					t.Run(fmt.Sprintf("%s/ranks=%d/%s", row, ranks, in.name), func(t *testing.T) {
						assertSameResult(t, want, in.run(t, uncached, ei), full)
					})
					t.Run(fmt.Sprintf("%s/ranks=%d/%s, payoff cache", row, ranks, in.name), func(t *testing.T) {
						assertSameResult(t, want, in.run(t, base, ei), full)
					})
				}
			}
		}
	}
}

func TestResumeFromRejectsMalformedSeries(t *testing.T) {
	cfg := testConfig(1, 4, 40)
	cfg.Seed = 1411
	sink := NewMemorySink()
	first := cfg
	first.Generations = 20
	first.CheckpointEvery = 20
	first.CheckpointSink = sink
	if _, err := RunSequential(first); err != nil {
		t.Fatal(err)
	}
	good, err := sink.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(good.MeanFitness) != 20 || len(good.Cooperation) != 20 {
		t.Fatalf("snapshot carries %d/%d series points, want 20/20", len(good.MeanFitness), len(good.Cooperation))
	}

	cases := []struct {
		name, want string
		mutate     func(s *checkpoint.Snapshot)
	}{
		{"intact", "", func(*checkpoint.Snapshot) {}},
		{"descending generations", "not ascending", func(s *checkpoint.Snapshot) {
			s.MeanFitness[5], s.MeanFitness[6] = s.MeanFitness[6], s.MeanFitness[5]
		}},
		{"repeated generation", "not ascending", func(s *checkpoint.Snapshot) {
			s.Cooperation[3].Generation = s.Cooperation[2].Generation
		}},
		{"point at the snapshot generation", "not ascending below", func(s *checkpoint.Snapshot) {
			s.Cooperation[19].Generation = int(s.Generation)
		}},
		{"point past the snapshot generation", "not ascending below", func(s *checkpoint.Snapshot) {
			s.MeanFitness[19].Generation = int(s.Generation) + 7
		}},
		{"foreign seed", "does not match", func(s *checkpoint.Snapshot) { s.Seed++ }},
	}
	for _, tc := range cases {
		snap, err := sink.Latest() // a fresh decode per case
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(snap)
		resumed := cfg
		err = resumed.ResumeFrom(snap)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.want)
		case tc.want != "" && (resumed.StartGeneration != 0 || resumed.InitialStrategies != nil):
			t.Errorf("%s: a refused snapshot still changed the config", tc.name)
		}
	}
}

// A noisy incremental run keeps each cell from the generation it was played
// in, so its snapshot without played generations cannot be resumed without
// forking the trajectory: ResumeFrom refuses it and names the missing block,
// and the intact snapshot resumes to the uninterrupted run's result.
func TestResumeFromRefusesKeptRunWithoutPlayed(t *testing.T) {
	cfg := testConfig(1, 12, 120)
	cfg.Seed = 1413
	cfg.Rules.ErrorRate = 0.05
	want, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewMemorySink()
	first := cfg
	first.Generations = 60
	first.CheckpointEvery = 60
	first.CheckpointSink = sink
	if _, err := RunSequential(first); err != nil {
		t.Fatal(err)
	}
	snap, err := sink.Latest()
	if err != nil {
		t.Fatal(err)
	}
	intact := cfg
	if err := intact.ResumeFrom(snap); err != nil {
		t.Fatal(err)
	}
	intact.Generations = 60
	got, err := RunSequential(intact)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.FinalFitness, want.FinalFitness) {
		t.Fatalf("resumed FinalFitness %v, uninterrupted %v", got.FinalFitness, want.FinalFitness)
	}

	snap.Played = nil
	resumed := cfg
	err = resumed.ResumeFrom(snap)
	if err == nil || !strings.Contains(err.Error(), "played-generations block") {
		t.Fatalf("a kept run's snapshot without played generations: error %v, want one naming the played-generations block", err)
	}
	if resumed.StartGeneration != 0 || resumed.InitialStrategies != nil {
		t.Fatal("a refused snapshot still changed the config")
	}
}

// A snapshot built by hand without counters or series still resumes; the
// run then simply has no record of the generations before it.
func TestResumeFromBareSnapshot(t *testing.T) {
	cfg := testConfig(1, 4, 30)
	cfg.Seed = 1412
	sp := strategy.NewSpace(1)
	bare := &checkpoint.Snapshot{
		Generation: 10, Seed: cfg.Seed, Memory: 1,
		Strategies: []strategy.Strategy{strategy.AllC(sp), strategy.AllD(sp), strategy.TFT(sp), strategy.WSLS(sp)},
	}
	if err := cfg.ResumeFrom(bare); err != nil {
		t.Fatal(err)
	}
	cfg.Generations = 20
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pts := res.MeanFitness.Points(); len(pts) != 20 || pts[0].Generation != 10 {
		t.Fatalf("series %+v, want 20 points from generation 10", pts)
	}
	if res.Counters.PCEvents > 20 || res.Counters.Mutations > 20 {
		t.Fatalf("counters %+v cover more than the 20 generations run", res.Counters)
	}
}
