package replicator

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/strategy"
)

func sp1() strategy.Space { return strategy.NewSpace(1) }

func freqSum(p *Population) float64 {
	s := 0.0
	for _, a := range p.Atoms() {
		s += a.Freq
	}
	return s
}

// run builds a population of strategies under cfg and steps it gens times.
func run(t *testing.T, cfg Config, gens int, strategies ...strategy.Strategy) *Population {
	t.Helper()
	p, err := NewFromStrategies(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < gens; g++ {
		p.Step()
	}
	return p
}

func freqOf(p *Population, s strategy.Strategy) float64 {
	for _, a := range p.Atoms() {
		if a.Strategy.Equal(s) {
			return a.Freq
		}
	}
	return 0
}

func TestValidateDefaults(t *testing.T) {
	var cfg Config
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Payoff != game.StandardPayoff() {
		t.Fatal("payoff not defaulted")
	}
	if cfg.Selection != 1 {
		t.Fatal("defaults not applied")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.ErrorRate = 2 },
		func(c *Config) { c.Selection = -1 },
		func(c *Config) { c.Selection = math.NaN() },
		func(c *Config) { c.ErrorRate = math.NaN() },
		func(c *Config) { c.Payoff = game.Payoff{R: 1, S: 2, T: 3, P: 4} },
	}
	for i, mutate := range cases {
		var cfg Config
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewFromStrategies(Config{}, []strategy.Strategy{strategy.AllC(sp1())}); err == nil {
		t.Error("a one-strategy population accepted")
	}
}

func TestNewUniformFrequencies(t *testing.T) {
	p := run(t, Config{}, 0,
		strategy.AllC(sp1()), strategy.AllD(sp1()), strategy.TFT(sp1()), strategy.WSLS(sp1()))
	for _, a := range p.Atoms() {
		if math.Abs(a.Freq-0.25) > 1e-12 {
			t.Fatalf("freq %v", a.Freq)
		}
	}
	if math.Abs(freqSum(p)-1) > 1e-12 {
		t.Fatal("frequencies do not sum to 1")
	}
}

func TestFrequenciesStayNormalised(t *testing.T) {
	// Strong selection (growth factors clamp at zero) over mixed and pure
	// atoms with errors: the mass stays one and no frequency goes negative.
	p, err := NewFromStrategies(Config{ErrorRate: 0.01, Selection: 2}, []strategy.Strategy{
		strategy.AllC(sp1()), strategy.AllD(sp1()), strategy.TFT(sp1()),
		strategy.WSLS(sp1()), strategy.GTFT(sp1(), 1.0/3.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 200; gen++ {
		p.Step()
		if s := freqSum(p); math.Abs(s-1) > 1e-9 {
			t.Fatalf("gen %d: frequency mass %v", gen, s)
		}
		for _, a := range p.Atoms() {
			if a.Freq < 0 {
				t.Fatalf("gen %d: negative frequency", gen)
			}
		}
	}
}

func TestSelectionDrivesOutDefectorsAmongReciprocators(t *testing.T) {
	// TFT + WSLS vs ALLD with no errors: the reciprocators earn R against
	// each other while ALLD earns P-ish against them, so ALLD's frequency
	// must collapse.
	p := run(t, Config{}, 400, strategy.TFT(sp1()), strategy.WSLS(sp1()), strategy.AllD(sp1()))
	if f := freqOf(p, strategy.AllD(sp1())); f > 0.01 {
		t.Fatalf("ALLD frequency %v, want near extinction", f)
	}
	if p.MeanFitness() < 2.9 {
		t.Fatalf("mean fitness %v, want near R=3", p.MeanFitness())
	}
}

func TestALLDInvadesUnconditionalCooperators(t *testing.T) {
	// ALLC + ALLD: defectors must take over (the basic PD logic).
	p := run(t, Config{}, 300, strategy.AllC(sp1()), strategy.AllD(sp1()))
	if f := freqOf(p, strategy.AllD(sp1())); f < 0.99 {
		t.Fatalf("ALLD frequency %v", f)
	}
}

func TestWSLSBeatsTFTUnderErrors(t *testing.T) {
	// The Fig. 2 mechanism in its analytic form: from equal TFT/WSLS/ALLC
	// shares under errors, WSLS ends on top (it exploits neither but
	// recovers fastest, and exploits ALLC drift — here directly via its
	// higher noisy self-play payoff against the field).
	p := run(t, Config{ErrorRate: 0.05}, 2000, strategy.TFT(sp1()), strategy.WSLS(sp1()), strategy.AllC(sp1()))
	if got := p.FractionNear(strategy.WSLS(sp1())); got < 0.5 {
		t.Fatalf("WSLS frequency %v after noisy competition, want > 0.5", got)
	}
}

func TestNewFromStrategiesRejectsWrongMemory(t *testing.T) {
	// Any one depth is accepted; a population mixing depths has no joint
	// chain and is refused by the payoff solve.
	_, err := NewFromStrategies(Config{}, []strategy.Strategy{
		strategy.AllC(sp1()), strategy.AllD(strategy.NewSpace(2)),
	})
	if err == nil {
		t.Fatal("memory-1 and memory-2 strategies accepted in one population")
	}
}

func TestMemoryTwoPopulation(t *testing.T) {
	// The Fig. 2 mechanism at memory two: the classics' memory-2 forms
	// play the same game, so WSLS again ends on top under errors.
	sp2 := strategy.NewSpace(2)
	p := run(t, Config{ErrorRate: 0.05}, 2000, strategy.TFT(sp2), strategy.WSLS(sp2), strategy.AllC(sp2))
	for _, a := range p.Atoms() {
		if a.Strategy.Space() != sp2 {
			t.Fatalf("memory-%d atom in a memory-2 population", a.Strategy.Space().Memory())
		}
	}
	if got := p.FractionNear(strategy.WSLS(sp2)); got < 0.5 {
		t.Fatalf("memory-2 WSLS frequency %v after noisy competition, want > 0.5", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	steps := func() []Atom {
		return run(t, Config{ErrorRate: 0.01}, 150,
			strategy.TFT(sp1()), strategy.WSLS(sp1()), strategy.AllD(sp1()), strategy.GTFT(sp1(), 1.0/3.0)).Atoms()
	}
	a, b := steps(), steps()
	if len(a) != len(b) {
		t.Fatal("atom counts differ")
	}
	for i := range a {
		if a[i].Freq != b[i].Freq || !a[i].Strategy.Equal(b[i].Strategy) {
			t.Fatalf("atom %d differs between identical runs", i)
		}
	}
}

// TestExactPayoffsClosedForm pins the payoff table the engine's oracle
// steps on. For each pair below the two players' moves in a round are
// independent in the stationary state, so the per-round payoff is the
// payoff matrix averaged over two cooperation probabilities: ALLC and ALLD
// cooperate with 1−e and e; TFT copies the opponent's previous move; WSLS
// against ALLD is a two-state chain on its own move; and TFT against TFT is
// doubly stochastic, so every joint state has weight ¼ once e > 0.
func TestExactPayoffsClosedForm(t *testing.T) {
	pay := game.StandardPayoff()
	pi := func(c0, c1 float64) float64 {
		return c0*c1*pay.R + c0*(1-c1)*pay.S + (1-c0)*c1*pay.T + (1-c0)*(1-c1)*pay.P
	}
	wslsVsAllD := func(e float64) float64 {
		stay := 2 * e * (1 - e)           // C after C: ALLD cooperated and no flip, or the reverse
		shift := (1-e)*(1-e) + e*e        // C after D: ALLD defected and no flip, or the reverse
		return shift / (1 - stay + shift) // stationary cooperation
	}
	tftVsTFT := func(e float64) float64 {
		if e == 0 {
			return 1 // mutual cooperation from the all-cooperate start
		}
		return 0.5
	}
	cases := []struct {
		name   string
		s0, s1 func(strategy.Space) *strategy.Pure
		c0, c1 func(e float64) float64
	}{
		{"ALLC_vs_ALLD", strategy.AllC, strategy.AllD,
			func(e float64) float64 { return 1 - e }, func(e float64) float64 { return e }},
		{"ALLD_vs_ALLD", strategy.AllD, strategy.AllD,
			func(e float64) float64 { return e }, func(e float64) float64 { return e }},
		{"TFT_vs_ALLC", strategy.TFT, strategy.AllC,
			func(e float64) float64 { return (1-e)*(1-e) + e*e }, func(e float64) float64 { return 1 - e }},
		{"TFT_vs_ALLD", strategy.TFT, strategy.AllD,
			func(e float64) float64 { return 2 * e * (1 - e) }, func(e float64) float64 { return e }},
		{"WSLS_vs_ALLD", strategy.WSLS, strategy.AllD,
			wslsVsAllD, func(e float64) float64 { return e }},
		{"TFT_vs_TFT", strategy.TFT, strategy.TFT, tftVsTFT, tftVsTFT},
	}
	for _, e := range []float64{0, 0.01, 0.05} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/e=%v", c.name, e), func(t *testing.T) {
				p, err := NewFromStrategies(Config{ErrorRate: e}, []strategy.Strategy{c.s0(sp1()), c.s1(sp1())})
				if err != nil {
					t.Fatal(err)
				}
				c0, c1 := c.c0(e), c.c1(e)
				want0, want1 := pi(c0, c1), pi(c1, c0)
				if got0, got1 := p.payoff[0][1], p.payoff[1][0]; math.Abs(got0-want0) > 1e-9 || math.Abs(got1-want1) > 1e-9 {
					t.Fatalf("payoffs (%v, %v), want (%v, %v)", got0, got1, want0, want1)
				}
			})
		}
	}
}

func TestStepIsTheReplicatorMap(t *testing.T) {
	// ALLC and ALLD at one half each without errors: π_ALLC = (R+S)/2 = 1.5,
	// π_ALLD = (T+P)/2 = 2.5, mean 2, so one step at selection 0.1 moves
	// ALLC to ½·(1 − 0.05) and ALLD to ½·(1 + 0.05).
	p := run(t, Config{Selection: 0.1}, 1, strategy.AllC(sp1()), strategy.AllD(sp1()))
	if c, d := freqOf(p, strategy.AllC(sp1())), freqOf(p, strategy.AllD(sp1())); math.Abs(c-0.475) > 1e-15 || math.Abs(d-0.525) > 1e-15 {
		t.Fatalf("after one step ALLC %v, ALLD %v, want 0.475, 0.525", c, d)
	}
}

func TestNeutralAtomsStayPut(t *testing.T) {
	// Without errors ALLC, TFT and WSLS all cooperate against each other
	// and earn R, so every growth factor is one and nothing moves.
	p := run(t, Config{Selection: 2}, 100, strategy.AllC(sp1()), strategy.TFT(sp1()), strategy.WSLS(sp1()))
	for _, a := range p.Atoms() {
		if math.Abs(a.Freq-1.0/3.0) > 1e-15 {
			t.Fatalf("%v moved to %v among payoff-equal atoms", a.Strategy, a.Freq)
		}
	}
}
