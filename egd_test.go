package egd

import (
	"strings"
	"testing"
)

func quickConfig() Config {
	return Config{Memory: 1, SSets: 10, Generations: 50, Rounds: 20, Seed: 1}
}

func TestRunSequential(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 10 || len(res.Fitness) != 10 {
		t.Fatalf("sizes: %d strategies, %d fitness", len(res.Strategies), len(res.Fitness))
	}
	for i, s := range res.Strategies {
		if len(s) != 4 {
			t.Fatalf("strategy %d = %q, want 4-state response string", i, s)
		}
	}
	if res.Ranks != 1 {
		t.Fatalf("ranks = %d", res.Ranks)
	}
	if res.GamesPlayed == 0 {
		t.Fatal("no games played")
	}
	if len(res.MeanFitness) == 0 || len(res.Cooperation) == 0 {
		t.Fatal("series empty")
	}
	if res.DistinctStrategies < 1 || res.DistinctStrategies > 10 {
		t.Fatalf("distinct = %d", res.DistinctStrategies)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	cfg := quickConfig()
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ranks = 4
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Ranks != 4 {
		t.Fatalf("ranks = %d", par.Ranks)
	}
	for i := range seq.Strategies {
		if seq.Strategies[i] != par.Strategies[i] {
			t.Fatalf("strategy %d differs: %s vs %s", i, seq.Strategies[i], par.Strategies[i])
		}
	}
	if seq.GamesPlayed != par.GamesPlayed || seq.Adoptions != par.Adoptions {
		t.Fatal("counters differ between engines")
	}
}

func TestRunMixedMarksStrategies(t *testing.T) {
	cfg := quickConfig()
	cfg.Mixed = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Strategies {
		if !strings.HasPrefix(s, "~") {
			t.Fatalf("mixed strategy rendered as %q, want ~prefix", s)
		}
	}
}

// rate is a Config rate that is present: explicit, zero included.
func rate(v float64) *float64 { return &v }

func TestConfigDefaultsAndFlags(t *testing.T) {
	cfg := quickConfig()
	sc, err := cfg.Config()
	if err != nil {
		t.Fatal(err)
	}
	if sc.PCRate != 0.10 || sc.Mu != 0.05 || sc.Beta != 1.0 || sc.Rules.Rounds != 20 {
		t.Fatalf("defaults wrong: %+v", sc)
	}
	cfg.PCRate, cfg.Mu = rate(0), rate(0)
	if sc, err = cfg.Config(); err != nil || sc.PCRate != 0 || sc.Mu != 0 {
		t.Fatalf("explicit zero rates ignored: %v %v (%v)", sc.PCRate, sc.Mu, err)
	}
	cfg.PCRate, cfg.Mu, cfg.Beta = rate(0.3), rate(0.2), rate(5)
	if sc, err = cfg.Config(); err != nil || sc.PCRate != 0.3 || sc.Mu != 0.2 || sc.Beta != 5 {
		t.Fatalf("explicit rates ignored: %+v (%v)", sc, err)
	}
	cfg.SearchEngine = true
	cfg.AllowWorseAdoption = true
	if sc, err = cfg.Config(); err != nil || !sc.UseSearchEngine || !sc.AllowWorseAdoption {
		t.Fatalf("lookup / Fermi switches ignored: %+v (%v)", sc, err)
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(Config{Memory: 0, SSets: 4, Generations: 1}); err == nil {
		t.Fatal("memory 0 accepted")
	}
	if _, err := Run(Config{Memory: 1, SSets: 1, Generations: 1}); err == nil {
		t.Fatal("1 SSet accepted")
	}
	if _, err := Run(Config{Memory: 1, SSets: 4, Generations: 1, Ranks: 99}); err == nil {
		t.Fatal("too many ranks accepted")
	}
}

func TestExactPayoffsFlag(t *testing.T) {
	cfg := quickConfig()
	cfg.ExactPayoffs = true
	cfg.Mixed = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GamesPlayed == 0 {
		t.Fatal("no evaluations in exact mode")
	}
	// Exact + paper-faithful lookup is contradictory and must be rejected.
	cfg.SearchEngine = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("exact + search lookup accepted")
	}
}

func TestNoEvolutionWhenDisabled(t *testing.T) {
	cfg := quickConfig()
	cfg.PCRate, cfg.Mu = rate(0), rate(0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PCEvents != 0 || res.Mutations != 0 || res.Adoptions != 0 {
		t.Fatalf("evolution events despite disabling: %+v", res)
	}
}
