package replicator

import (
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/strategy"
)

func sp1() strategy.Space { return strategy.NewSpace(1) }

func baseConfig() Config {
	return Config{
		Atoms:       8,
		Generations: 100,
		MutantFreq:  0.01,
		MutateEvery: 10,
		Seed:        1,
	}
}

func freqSum(p *Population) float64 {
	s := 0.0
	for _, a := range p.Atoms() {
		s += a.Freq
	}
	return s
}

func TestValidateDefaults(t *testing.T) {
	cfg := baseConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Payoff != game.StandardPayoff() {
		t.Fatal("payoff not defaulted")
	}
	if cfg.Selection != 1 || cfg.ExtinctBelow != 1e-6 {
		t.Fatal("defaults not applied")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Atoms = 1 },
		func(c *Config) { c.Generations = -1 },
		func(c *Config) { c.MutantFreq = 1 },
		func(c *Config) { c.MutantFreq = -0.1 },
		func(c *Config) { c.MutateEvery = -1 },
		func(c *Config) { c.ErrorRate = 2 },
		func(c *Config) { c.ExtinctBelow = 0.5 },
		func(c *Config) { c.Selection = -1 },
		func(c *Config) { c.Selection = math.NaN() },
		func(c *Config) { c.MutantFreq = math.NaN() },
		func(c *Config) { c.ExtinctBelow = math.NaN() },
		func(c *Config) { c.ErrorRate = math.NaN() },
		func(c *Config) { c.Payoff = game.Payoff{R: 1, S: 2, T: 3, P: 4} },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewUniformFrequencies(t *testing.T) {
	p, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Atoms()) != 8 {
		t.Fatalf("%d atoms", len(p.Atoms()))
	}
	for _, a := range p.Atoms() {
		if math.Abs(a.Freq-0.125) > 1e-12 {
			t.Fatalf("freq %v", a.Freq)
		}
	}
	if math.Abs(freqSum(p)-1) > 1e-12 {
		t.Fatal("frequencies do not sum to 1")
	}
}

func TestFrequenciesStayNormalised(t *testing.T) {
	cfg := baseConfig()
	cfg.ErrorRate = 0.01
	cfg.Generations = 200
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(func(gen int, pop *Population) {
		if s := freqSum(pop); math.Abs(s-1) > 1e-9 {
			t.Fatalf("gen %d: frequency mass %v", gen, s)
		}
		for _, a := range pop.Atoms() {
			if a.Freq < 0 {
				t.Fatalf("gen %d: negative frequency", gen)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.gen != 200 {
		t.Fatalf("generation = %d", p.gen)
	}
}

func TestSelectionDrivesOutDefectorsAmongReciprocators(t *testing.T) {
	// TFT + WSLS vs ALLD with no errors: the reciprocators earn R against
	// each other while ALLD earns P-ish against them, so ALLD's frequency
	// must collapse.
	cfg := baseConfig()
	cfg.MutateEvery = 0 // pure selection
	cfg.Generations = 400
	p, err := NewFromStrategies(cfg, []strategy.Strategy{
		strategy.TFT(sp1()), strategy.WSLS(sp1()), strategy.AllD(sp1()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	allDFreq := 0.0
	for _, a := range p.Atoms() {
		if a.Strategy.Equal(strategy.AllD(sp1())) {
			allDFreq = a.Freq
		}
	}
	if allDFreq > 0.01 {
		t.Fatalf("ALLD frequency %v, want near extinction", allDFreq)
	}
	if p.MeanFitness() < 2.9 {
		t.Fatalf("mean fitness %v, want near R=3", p.MeanFitness())
	}
}

func TestALLDInvadesUnconditionalCooperators(t *testing.T) {
	// ALLC + ALLD: defectors must take over (the basic PD logic).
	cfg := baseConfig()
	cfg.MutateEvery = 0
	cfg.Generations = 300
	p, err := NewFromStrategies(cfg, []strategy.Strategy{
		strategy.AllC(sp1()), strategy.AllD(sp1()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	dom := p.DominantAtom()
	if !dom.Strategy.Equal(strategy.AllD(sp1())) {
		t.Fatal("ALLD did not dominate ALLC")
	}
	if dom.Freq < 0.99 {
		t.Fatalf("ALLD frequency %v", dom.Freq)
	}
}

func TestWSLSBeatsTFTUnderErrors(t *testing.T) {
	// The Fig. 2 mechanism in its analytic form: from equal TFT/WSLS/GTFT
	// shares under errors, WSLS ends on top (it exploits neither but
	// recovers fastest, and exploits ALLC drift — here directly via its
	// higher noisy self-play payoff against the field).
	cfg := baseConfig()
	cfg.MutateEvery = 0
	cfg.ErrorRate = 0.05
	cfg.Generations = 2000
	p, err := NewFromStrategies(cfg, []strategy.Strategy{
		strategy.TFT(sp1()), strategy.WSLS(sp1()), strategy.AllC(sp1()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := p.FractionNear(strategy.WSLS(sp1())); got < 0.5 {
		t.Fatalf("WSLS frequency %v after noisy competition, want > 0.5", got)
	}
}

func TestMutationInjectsAndPrunes(t *testing.T) {
	cfg := baseConfig()
	cfg.Generations = 500
	cfg.MutateEvery = 5
	cfg.MutantFreq = 0.02
	cfg.ExtinctBelow = 1e-4
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxAtoms := 0
	err = p.Run(func(gen int, pop *Population) {
		if n := len(pop.Atoms()); n > maxAtoms {
			maxAtoms = n
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Injection grows the atom set; extinction keeps it bounded.
	if maxAtoms <= 8 {
		t.Fatal("no mutants were injected")
	}
	if len(p.Atoms()) > 8+500/5 {
		t.Fatal("extinction never pruned")
	}
	if math.Abs(freqSum(p)-1) > 1e-9 {
		t.Fatal("mass not conserved through injection/pruning")
	}
}

func TestNewFromStrategiesRejectsWrongMemory(t *testing.T) {
	// Any one depth is accepted; a population mixing depths has no joint
	// chain and is refused by the payoff solve.
	_, err := NewFromStrategies(baseConfig(), []strategy.Strategy{
		strategy.AllC(sp1()), strategy.AllD(strategy.NewSpace(2)),
	})
	if err == nil {
		t.Fatal("memory-1 and memory-2 strategies accepted in one population")
	}
}

func TestMemoryTwoPopulation(t *testing.T) {
	// The Fig. 2 mechanism at memory two: the classics' memory-2 forms
	// play the same game, so WSLS again ends on top under errors — and the
	// mutants injected along the way are drawn at the population's depth.
	sp2 := strategy.NewSpace(2)
	cfg := baseConfig()
	cfg.ErrorRate = 0.05
	cfg.Generations = 2000
	cfg.MutateEvery = 400
	cfg.MutantFreq = 0.001
	p, err := NewFromStrategies(cfg, []strategy.Strategy{
		strategy.TFT(sp2), strategy.WSLS(sp2), strategy.AllC(sp2),
	})
	if err != nil {
		t.Fatal(err)
	}
	mutants := 0
	err = p.Run(func(gen int, pop *Population) {
		// A fresh mutant is the last atom, still at its entry frequency.
		if last := pop.Atoms()[len(pop.Atoms())-1]; gen%cfg.MutateEvery == 0 && last.Freq == cfg.MutantFreq {
			mutants++
		}
		for _, a := range pop.Atoms() {
			if a.Strategy.Space() != sp2 {
				t.Fatalf("gen %d: memory-%d atom in a memory-2 population", gen, a.Strategy.Space().Memory())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mutants != cfg.Generations/cfg.MutateEvery {
		t.Fatalf("%d mutants observed, want %d", mutants, cfg.Generations/cfg.MutateEvery)
	}
	if got := p.FractionNear(strategy.WSLS(sp2)); got < 0.5 {
		t.Fatalf("memory-2 WSLS frequency %v after noisy competition, want > 0.5", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []Atom {
		cfg := baseConfig()
		cfg.Generations = 150
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(nil); err != nil {
			t.Fatal(err)
		}
		return p.Atoms()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("atom counts differ")
	}
	for i := range a {
		if a[i].Freq != b[i].Freq || !a[i].Strategy.Equal(b[i].Strategy) {
			t.Fatalf("atom %d differs between identical runs", i)
		}
	}
}

func TestMeanCooperationBounds(t *testing.T) {
	p, err := NewFromStrategies(baseConfig(), []strategy.Strategy{
		strategy.AllC(sp1()), strategy.AllD(sp1()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MeanCooperation(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean cooperation %v, want 0.5", got)
	}
}
