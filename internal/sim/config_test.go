package sim

import (
	"testing"

	"repro/internal/game"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig(1, 64)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.PCRate != 0.10 || cfg.Mu != 0.05 {
		t.Fatalf("paper defaults wrong: PC %v mu %v", cfg.PCRate, cfg.Mu)
	}
	if cfg.Rules.Rounds != 200 {
		t.Fatalf("rounds = %d", cfg.Rules.Rounds)
	}
}

func TestValidateRejections(t *testing.T) {
	base := DefaultConfig(1, 16)
	cases := []func(*Config){
		func(c *Config) { c.Memory = 0 },
		func(c *Config) { c.Memory = 7 },
		func(c *Config) { c.NumSSets = 1 },
		func(c *Config) { c.Generations = -1 },
		func(c *Config) { c.PCRate = 1.5 },
		func(c *Config) { c.PCRate = -0.1 },
		func(c *Config) { c.Mu = 2 },
		func(c *Config) { c.Beta = -1 },
		func(c *Config) { c.SampleStride = -1 },
		func(c *Config) { c.Rules = game.Rules{Payoff: game.Payoff{R: 1, S: 2, T: 3, P: 4}, Rounds: 10} },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestValidateDefaults(t *testing.T) {
	cfg := Config{Memory: 2, NumSSets: 8, Generations: 5000}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Rules.Rounds != 200 {
		t.Fatal("rules not defaulted")
	}
	if cfg.SampleStride != 6 {
		t.Fatalf("stride = %d, want 6 for 5000 gens", cfg.SampleStride)
	}
}

func TestPopulationSizeAndGames(t *testing.T) {
	cfg := DefaultConfig(1, 1024)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper: agents per SSet = #SSets, so the population is S^2.
	if cfg.PopulationSize() != 1024*1024 {
		t.Fatalf("population = %d", cfg.PopulationSize())
	}
	if cfg.GamesPerGeneration() != 1024*1023 {
		t.Fatalf("games = %d", cfg.GamesPerGeneration())
	}
}

func TestObserverFunc(t *testing.T) {
	called := 0
	var obs Observer = ObserverFunc(func(gen int, pop *Population, ev Events) { called++ })
	obs.Generation(0, nil, Events{})
	if called != 1 {
		t.Fatal("ObserverFunc not invoked")
	}
}
