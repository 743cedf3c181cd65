package sim

import (
	"math"
	"testing"

	"repro/internal/strategy"
)

func TestRunSequentialBasics(t *testing.T) {
	cfg := testConfig(1, 8, 50)
	cfg.Seed = 1
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != 8 || len(res.FinalFitness) != 8 {
		t.Fatalf("final sizes %d/%d", len(res.Final), len(res.FinalFitness))
	}
	if res.Counters.GamesPlayed < 8*7 {
		t.Fatalf("games played %d < initial %d", res.Counters.GamesPlayed, 8*7)
	}
	if res.Ranks != 1 {
		t.Fatalf("ranks = %d", res.Ranks)
	}
	if res.MeanFitness.Len() == 0 || res.Cooperation.Len() == 0 {
		t.Fatal("series empty")
	}
	// Per-round fitness scale: between P=1 and R=3 under the standard
	// payoff once averaged over opponents... extremes T=4/S=0 possible for
	// single opponents but the mean must stay within [0,4].
	for i, f := range res.FinalFitness {
		if f < 0 || f > 4 {
			t.Fatalf("fitness[%d] = %v out of [0,4]", i, f)
		}
	}
}

func TestRunSequentialDeterministic(t *testing.T) {
	cfg := testConfig(2, 6, 40)
	cfg.Seed = 42
	a, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	for i := range a.Final {
		if !a.Final[i].Equal(b.Final[i]) {
			t.Fatalf("final strategy %d differs", i)
		}
	}
	for i := range a.FinalFitness {
		if a.FinalFitness[i] != b.FinalFitness[i] {
			t.Fatalf("final fitness %d differs", i)
		}
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	cfg := testConfig(1, 8, 60)
	cfg.Seed = 1
	a, _ := RunSequential(cfg)
	cfg.Seed = 2
	b, _ := RunSequential(cfg)
	if a.Counters == b.Counters {
		// Event counts could coincide; check strategies too before failing.
		same := true
		for i := range a.Final {
			if !a.Final[i].Equal(b.Final[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestEventRatesApproximatePaperParameters(t *testing.T) {
	cfg := testConfig(1, 4, 4000)
	cfg.Seed = 3
	cfg.PCRate = 0.10
	cfg.Mu = 0.05
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcRate := float64(res.Counters.PCEvents) / 4000
	muRate := float64(res.Counters.Mutations) / 4000
	if math.Abs(pcRate-0.10) > 0.02 {
		t.Errorf("observed PC rate %v, configured 0.10", pcRate)
	}
	if math.Abs(muRate-0.05) > 0.015 {
		t.Errorf("observed mutation rate %v, configured 0.05", muRate)
	}
	if res.Counters.Adoptions > res.Counters.PCEvents {
		t.Error("more adoptions than PC events")
	}
}

func TestIncrementalMatchesFullRecomputeForPureStrategies(t *testing.T) {
	// Pure strategies with no execution errors make matches deterministic,
	// so replaying them every generation (paper mode) or only on change
	// must give identical trajectories.
	base := testConfig(1, 8, 80)
	base.Seed = 4

	inc := base
	inc.FullRecompute = false
	full := base
	full.FullRecompute = true

	a, err := RunSequential(inc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(full)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters.PCEvents != b.Counters.PCEvents ||
		a.Counters.Adoptions != b.Counters.Adoptions ||
		a.Counters.Mutations != b.Counters.Mutations {
		t.Fatalf("event counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	for i := range a.Final {
		if !a.Final[i].Equal(b.Final[i]) {
			t.Fatalf("final strategy %d differs between modes", i)
		}
	}
	if b.Counters.GamesPlayed <= a.Counters.GamesPlayed {
		t.Fatalf("full recompute (%d games) should cost more than incremental (%d)",
			b.Counters.GamesPlayed, a.Counters.GamesPlayed)
	}
}

func TestSearchEngineModeMatchesDirect(t *testing.T) {
	base := testConfig(1, 6, 40)
	base.Seed = 5
	direct := base
	search := base
	search.UseSearchEngine = true
	a, err := RunSequential(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(search)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	for i := range a.Final {
		if !a.Final[i].Equal(b.Final[i]) {
			t.Fatalf("final strategy %d differs", i)
		}
	}
}

func TestObserverSeesEveryGeneration(t *testing.T) {
	cfg := testConfig(1, 4, 25)
	gens := []int{}
	cfg.Observer = ObserverFunc(func(gen int, pop *Population, ev Events) {
		gens = append(gens, gen)
		if pop.Size() != 4 {
			t.Errorf("observer saw population of %d", pop.Size())
		}
	})
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 25 || gens[0] != 0 || gens[24] != 24 {
		t.Fatalf("observer called for %d generations", len(gens))
	}
}

// TestPlacedStrategiesAreNeverWritten pins what adoption by reference, the
// snapshots and the table's last-match memo all lean on: once a
// strategy value is placed in the population nothing writes into it. On both
// engines an observer keeps a deep copy of every value it has ever seen
// placed and compares all of them each generation; it also checks that an
// adopting learner really shares its teacher's value.
func TestPlacedStrategiesAreNeverWritten(t *testing.T) {
	for _, kind := range []StrategyKind{PureStrategies, MixedStrategies} {
		for _, ranks := range []int{1, 3} {
			cfg := testConfig(2, 8, 400)
			cfg.Kind, cfg.Seed, cfg.PCRate, cfg.Beta = kind, 77, 0.5, 5
			placed := map[strategy.Strategy]strategy.Strategy{}
			shared := 0
			// The observer runs on the Nature rank's goroutine: Errorf, not Fatalf.
			cfg.Observer = ObserverFunc(func(gen int, pop *Population, ev Events) {
				for _, s := range pop.strategies {
					if _, ok := placed[s]; !ok {
						placed[s] = s.Clone()
					}
				}
				for s, was := range placed {
					if !s.Equal(was) {
						t.Errorf("kind %v, %d ranks, generation %d: a placed strategy changed from %v to %v", kind, ranks, gen, was, s)
					}
				}
				// The generation's mutation comes after its adoption and may
				// have replaced either side since.
				if ev.Adopted && !(ev.MutationOccurred && (ev.Mutant == ev.Learner || ev.Mutant == ev.Teacher)) {
					if pop.strategies[ev.Learner] != pop.strategies[ev.Teacher] {
						t.Errorf("generation %d: learner %d holds a copy of teacher %d's strategy", gen, ev.Learner, ev.Teacher)
					}
					shared++
				}
			})
			res, err := RunParallel(cfg, ranks)
			if err != nil {
				t.Fatal(err)
			}
			if shared < 10 || len(placed) < 20 {
				t.Fatalf("degenerate run: %d adoptions shared a value, %d values placed", shared, len(placed))
			}
			// Result.Final is the observer's copy to keep: deep, not shared.
			for i, s := range res.Final {
				if _, aliased := placed[s]; aliased {
					t.Fatalf("Result.Final[%d] aliases a population value", i)
				}
			}
		}
	}
}

func TestSelectionFavoursFitterStrategies(t *testing.T) {
	// With frequent PC, no mutation, and strong selection, the population
	// should lose diversity (abundance entropy falls) as fitter strategies
	// spread — the basic evolutionary mechanism.
	cfg := testConfig(1, 16, 800)
	cfg.Seed = 6
	cfg.PCRate = 1.0
	cfg.Mu = 0
	cfg.Beta = 10
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.FinalAbundance()
	if a.Distinct() >= 16 {
		t.Fatalf("no fixation: %d distinct strategies remain of 16", a.Distinct())
	}
	if res.Counters.Adoptions == 0 {
		t.Fatal("no adoptions occurred")
	}
}

func TestMutationMaintainsDiversity(t *testing.T) {
	// With mutation but no learning, diversity persists.
	cfg := testConfig(1, 8, 300)
	cfg.Seed = 7
	cfg.PCRate = 0
	cfg.Mu = 0.5
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Mutations == 0 {
		t.Fatal("no mutations at mu=0.5")
	}
	if res.Counters.PCEvents != 0 {
		t.Fatal("PC events at rate 0")
	}
}

func TestZeroGenerations(t *testing.T) {
	cfg := testConfig(1, 4, 0)
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != 4 || res.Counters.GamesPlayed != 0 {
		t.Fatalf("zero-generation run: %+v", res.Counters)
	}
}

func TestMixedStrategiesRun(t *testing.T) {
	cfg := testConfig(1, 6, 60)
	cfg.Kind = MixedStrategies
	cfg.Seed = 8
	cfg.Rules.ErrorRate = 0.01
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Final {
		if _, ok := s.(*strategy.Mixed); !ok {
			t.Fatalf("final strategy %d is not mixed", i)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := testConfig(0, 4, 10)
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("memory 0 accepted")
	}
	if _, err := RunParallel(testConfig(0, 4, 10), 3); err == nil {
		t.Fatal("parallel memory 0 accepted")
	}
}
