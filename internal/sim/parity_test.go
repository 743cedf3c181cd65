package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// The paper's central software property: the parallel decomposition changes
// where work runs, not what is computed. These tests pin the engine's
// trajectory to the one-rank reference for a range of rank counts, strategy
// kinds, and evaluation modes.

func assertSameTrajectory(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Counters.PCEvents != b.Counters.PCEvents ||
		a.Counters.Adoptions != b.Counters.Adoptions ||
		a.Counters.Mutations != b.Counters.Mutations ||
		a.Counters.GamesPlayed != b.Counters.GamesPlayed {
		t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	assertSameFinal(t, a, b)
	assertSameSeries(t, "mean fitness", a.MeanFitness, b.MeanFitness, 0)
}

// reductionDrift bounds how far two mean-fitness samples of one trajectory
// may sit apart when they were summed in different orders — over type
// counts on the table, over SSets on the reference kernel: last-ulp drift
// only. Every engine and rank count sums one table in the same order.
const reductionDrift = 1e-9

// assertSameFinal requires bit-identical final strategies and fitness.
func assertSameFinal(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Final) != len(b.Final) {
		t.Fatalf("final population sizes differ")
	}
	for i := range a.Final {
		if !a.Final[i].Equal(b.Final[i]) {
			t.Fatalf("final strategy %d differs", i)
		}
	}
	for i := range a.FinalFitness {
		if a.FinalFitness[i] != b.FinalFitness[i] {
			t.Fatalf("final fitness %d differs: %v vs %v", i, a.FinalFitness[i], b.FinalFitness[i])
		}
	}
}

// assertSameSeries requires the same sampled generations and values within
// tol (0 demands bit-identity).
func assertSameSeries(t *testing.T, name string, a, b *stats.Series, tol float64) {
	t.Helper()
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatalf("%s series lengths differ: %d vs %d", name, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Generation != pb[i].Generation {
			t.Fatalf("%s sample %d: generation %d vs %d", name, i, pa[i].Generation, pb[i].Generation)
		}
		if math.Abs(pa[i].Value-pb[i].Value) > tol {
			t.Fatalf("%s at gen %d: %v vs %v", name, pa[i].Generation, pa[i].Value, pb[i].Value)
		}
	}
}

func TestParallelMatchesSequentialAcrossRankCounts(t *testing.T) {
	cfg := testConfig(1, 12, 60)
	cfg.Seed = 101
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 4, 5, 8, 13} {
		par, err := RunParallel(cfg, ranks)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		if par.Ranks != ranks {
			t.Fatalf("result ranks %d", par.Ranks)
		}
		assertSameTrajectory(t, seq, par)
	}
}

func TestParallelParityMixedStrategiesWithErrors(t *testing.T) {
	cfg := testConfig(1, 9, 50)
	cfg.Seed = 102
	cfg.Kind = MixedStrategies
	cfg.Rules.ErrorRate = 0.02
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4, 7} {
		par, err := RunParallel(cfg, ranks)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		assertSameTrajectory(t, seq, par)
	}
}

func TestParallelParityFullRecompute(t *testing.T) {
	cfg := testConfig(2, 8, 30)
	cfg.Seed = 103
	cfg.FullRecompute = true
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

// A window that crosses generation 2^32 runs on several ranks as it does on
// one: the verdict carries Gen's high 32 bits. Served by type the
// first refresh and the end of the window meet; noisy, every adoption too.
func TestParallelParityPastGeneration2To32(t *testing.T) {
	start := uint64(1)<<32 - 2
	if uint64(math.MaxInt) < start+5 {
		t.Skip("int holds no generation past 2^32 here")
	}
	for _, noisy := range []bool{false, true} {
		cfg := testConfig(1, 6, 5)
		cfg.Seed, cfg.StartGeneration = 105, int(start)
		if noisy {
			cfg.Kind, cfg.Rules.ErrorRate, cfg.PCRate = MixedStrategies, 0.05, 1
		}
		seq, err := RunSequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunParallel(cfg, 3)
		if err != nil {
			t.Fatalf("noisy %v: %v", noisy, err)
		}
		assertSameTrajectory(t, seq, par)
	}
}

func TestParallelParityHigherMemory(t *testing.T) {
	cfg := testConfig(3, 6, 20)
	cfg.Seed = 104
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

func TestParallelValidation(t *testing.T) {
	cfg := testConfig(1, 4, 10)
	if _, err := RunParallel(cfg, 0); err == nil {
		t.Fatal("0 ranks accepted")
	}
	if _, err := RunParallel(cfg, 1); err != nil {
		t.Fatalf("1 rank rejected: %v", err)
	}
	// Workers are capped by the games of one generation, S*(S-1) = 12.
	if _, err := RunParallel(cfg, 14); err == nil {
		t.Fatal("more workers than games accepted")
	}
	if _, err := RunParallel(cfg, 13); err != nil {
		t.Fatalf("max workers rejected: %v", err)
	}
}

func TestParallelParityMoreWorkersThanSSets(t *testing.T) {
	// The paper's second parallelism level: with more processors than
	// SSets, one SSet's games split across workers ("each processor
	// handles between 1/2 and 8 full SSets"). Parity must hold when rows
	// span several workers, including with PC fitness reassembly.
	cfg := testConfig(1, 5, 60)
	cfg.Seed = 107
	cfg.PCRate = 0.5 // exercise segment reassembly often
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{7, 11, 16, 21} { // 6..20 workers for 20 games
		par, err := RunParallel(cfg, ranks)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		assertSameTrajectory(t, seq, par)
	}
}

func TestParallelParityMaxWorkersOnePairEach(t *testing.T) {
	cfg := testConfig(1, 4, 30)
	cfg.Seed = 108
	cfg.Kind = MixedStrategies
	cfg.Rules.ErrorRate = 0.02
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 13) // 12 workers: exactly one game pair each
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

func TestParallelObserverRuns(t *testing.T) {
	cfg := testConfig(1, 6, 15)
	cfg.Seed = 105
	count := 0
	adopted := 0
	cfg.Observer = func(gen int, pop *Population, ev Events) {
		count++
		if ev.Adopted {
			adopted++
		}
	}
	res, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("observer called %d times", count)
	}
	if uint64(adopted) != res.Counters.Adoptions {
		t.Fatalf("observer saw %d adoptions, counters say %d", adopted, res.Counters.Adoptions)
	}
}

func TestParallelOneSSetPerWorker(t *testing.T) {
	cfg := testConfig(1, 6, 25)
	cfg.Seed = 106
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 7) // 6 workers, 1 SSet each
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

// observed is one Observer callback, flattened to comparable values.
type observed struct {
	gen        int
	ev         Events
	strategies string // per-SSet fingerprints, in SSet order
}

// TestObserverStreamParity: Config.Observer sees the same thing at every
// rank count — the full (generation, events, population) stream of a
// several-rank run equals the one-rank run's, in both evaluation modes.
func TestObserverStreamParity(t *testing.T) {
	for _, full := range []bool{false, true} {
		cfg := testConfig(1, 10, 80)
		cfg.Seed = 107
		cfg.FullRecompute = full
		record := func(run func(Config) (*Result, error)) []observed {
			var stream []observed
			c := cfg
			c.Observer = func(gen int, pop *Population, ev Events) {
				o := observed{gen: gen, ev: ev}
				for i := 0; i < pop.Size(); i++ {
					o.strategies += fmt.Sprintf("%x,", pop.strategies[i].Fingerprint())
				}
				stream = append(stream, o)
			}
			if _, err := run(c); err != nil {
				t.Fatal(err)
			}
			return stream
		}
		want := record(RunSequential)
		if len(want) != cfg.Generations {
			t.Fatalf("full=%v: one-rank observer saw %d generations, want %d", full, len(want), cfg.Generations)
		}
		for _, ranks := range []int{2, 3, 5} {
			got := record(func(c Config) (*Result, error) { return RunParallel(c, ranks) })
			if len(got) != len(want) {
				t.Fatalf("full=%v ranks=%d: observer saw %d generations, want %d", full, ranks, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("full=%v ranks=%d: observer callback %d = %+v, one rank saw %+v", full, ranks, k, got[k], want[k])
				}
			}
		}
	}
}
