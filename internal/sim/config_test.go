package sim

import (
	"math"
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
		func(c *Config) { c.StartGeneration, c.Generations = math.MaxInt-10, 100 }, // the window's end overflows int
		func(c *Config) { c.StartGeneration, c.Generations = 1, math.MaxInt },
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
	last := base
	last.StartGeneration, last.Generations = math.MaxInt-10, 10 // ends at the last int
	if err := last.Validate(); err != nil {
		t.Errorf("a window ending at math.MaxInt: %v", err)
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

// The game counts are uint64 on every GOARCH: at 50 000 SSets S×(S-1)
// overflows a 32-bit int.
func TestPopulationSizeAndGames(t *testing.T) {
	for _, tc := range []struct {
		s             int
		agents, games uint64
	}{
		{1024, 1024 * 1024, 1024 * 1023},
		{50000, 2_500_000_000, 2_499_950_000},
	} {
		cfg := DefaultConfig(1, tc.s)
		if err := checkParallel(&cfg, 3); err != nil {
			t.Fatalf("S=%d: %v", tc.s, err)
		}
		// Paper: agents per SSet = #SSets, so the population is S^2.
		if cfg.PopulationSize() != tc.agents {
			t.Fatalf("S=%d: population = %d", tc.s, cfg.PopulationSize())
		}
		if cfg.GamesPerGeneration() != tc.games {
			t.Fatalf("S=%d: games = %d", tc.s, cfg.GamesPerGeneration())
		}
		for _, changed := range []int{0, tc.s} {
			if got := scheduledGames(tc.s, changed, changed == 0); got != tc.games {
				t.Fatalf("S=%d: scheduledGames(%d changed) = %d, want %d", tc.s, changed, got, tc.games)
			}
		}
		if got, want := scheduledGames(tc.s, 1, false), 2*uint64(tc.s-1); got != want {
			t.Fatalf("S=%d: scheduledGames(1 changed) = %d, want %d", tc.s, got, want)
		}
	}
}
