package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

var payoff = game.StandardPayoff()

func sp1() strategy.Space { return strategy.NewSpace(1) }

func TestMarkovKnownMatchups(t *testing.T) {
	cases := []struct {
		name     string
		s0, s1   strategy.Strategy
		pi0, pi1 float64
	}{
		{"ALLC vs ALLC", strategy.AllC(sp1()), strategy.AllC(sp1()), 3, 3},
		{"ALLD vs ALLC", strategy.AllD(sp1()), strategy.AllC(sp1()), 4, 0},
		{"ALLD vs ALLD", strategy.AllD(sp1()), strategy.AllD(sp1()), 1, 1},
		{"TFT vs TFT", strategy.TFT(sp1()), strategy.TFT(sp1()), 3, 3},
		{"WSLS vs WSLS", strategy.WSLS(sp1()), strategy.WSLS(sp1()), 3, 3},
		// WSLS vs ALLD alternates C and D: payoffs average (0+1)/2 vs (4+1)/2.
		{"WSLS vs ALLD", strategy.WSLS(sp1()), strategy.AllD(sp1()), 0.5, 2.5},
	}
	for _, c := range cases {
		pi0, pi1, err := MarkovPayoff(payoff, c.s0, c.s1, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(pi0-c.pi0) > 1e-6 || math.Abs(pi1-c.pi1) > 1e-6 {
			t.Errorf("%s: payoffs (%v,%v), want (%v,%v)", c.name, pi0, pi1, c.pi0, c.pi1)
		}
	}
}

func TestMarkovValidation(t *testing.T) {
	if _, _, err := MarkovPayoff(payoff, strategy.AllC(strategy.NewSpace(2)), strategy.AllC(strategy.NewSpace(2)), 0); err == nil {
		t.Fatal("memory-2 accepted")
	}
	if _, _, err := MarkovPayoff(payoff, strategy.AllC(sp1()), strategy.AllC(strategy.NewSpace(2)), 0); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
	if _, _, err := MarkovPayoff(payoff, strategy.AllC(sp1()), strategy.AllC(sp1()), 1.5); err == nil {
		t.Fatal("error rate 1.5 accepted")
	}
}

func TestMarkovErrorsDegradeTFTNotWSLS(t *testing.T) {
	// The paper's §III-E claim, exactly: under errors TFT self-play payoff
	// collapses toward the alternating average while WSLS self-play stays
	// near R.
	tft := strategy.TFT(sp1())
	wsls := strategy.WSLS(sp1())
	const e = 0.01
	tftPi, _, err := MarkovPayoff(payoff, tft, tft, e)
	if err != nil {
		t.Fatal(err)
	}
	wslsPi, _, err := MarkovPayoff(payoff, wsls, wsls, e)
	if err != nil {
		t.Fatal(err)
	}
	if wslsPi <= tftPi {
		t.Fatalf("WSLS self-play %v should exceed TFT self-play %v at 1%% errors", wslsPi, tftPi)
	}
	if wslsPi < 2.8 {
		t.Fatalf("WSLS self-play payoff %v, want near 3", wslsPi)
	}
	// TFT with errors: the pair spends equal time in all four states in
	// the limit of the error-driven chain -> payoff -> 2.0.
	if math.Abs(tftPi-2.0) > 0.1 {
		t.Fatalf("TFT self-play payoff %v, want near 2.0", tftPi)
	}
}

func TestMarkovMatchesSampledEngine(t *testing.T) {
	// Ground truth vs the sampled engine: long sampled matches converge to
	// the Markov payoff for random mixed strategies with errors.
	master := rng.New(3)
	rules := game.DefaultRules()
	rules.Rounds = 200000
	rules.ErrorRate = 0.02
	for trial := 0; trial < 5; trial++ {
		s0 := strategy.RandomMixed(sp1(), master)
		s1 := strategy.RandomMixed(sp1(), master)
		exact0, exact1, err := MarkovPayoff(rules.Payoff, s0, s1, rules.ErrorRate)
		if err != nil {
			t.Fatal(err)
		}
		res := game.Play(rules, s0, s1, master)
		if math.Abs(res.Mean0()-exact0) > 0.02 || math.Abs(res.Mean1()-exact1) > 0.02 {
			t.Errorf("trial %d: sampled (%v,%v) vs exact (%v,%v)",
				trial, res.Mean0(), res.Mean1(), exact0, exact1)
		}
	}
}

func TestMarkovPayoffSumProperty(t *testing.T) {
	// Joint payoff per round is bounded by [2P', 2R] envelope: between the
	// worst (both sucker/punish mix) and best joint outcomes: in [1+0, 3+3].
	f := func(seed uint64) bool {
		master := rng.New(seed)
		s0 := strategy.RandomMixed(sp1(), master)
		s1 := strategy.RandomMixed(sp1(), master)
		pi0, pi1, err := MarkovPayoff(payoff, s0, s1, 0.01)
		if err != nil {
			return false
		}
		sum := pi0 + pi1
		return sum >= 2*payoff.P-1e-9 && sum <= 2*payoff.R+1e-9 || sum >= payoff.S+payoff.T-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkovSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		master := rng.New(seed)
		s0 := strategy.RandomMixed(sp1(), master)
		s1 := strategy.RandomMixed(sp1(), master)
		a0, a1, err := MarkovPayoff(payoff, s0, s1, 0.05)
		if err != nil {
			return false
		}
		b0, b1, err := MarkovPayoff(payoff, s1, s0, 0.05)
		if err != nil {
			return false
		}
		return math.Abs(a0-b1) < 1e-6 && math.Abs(a1-b0) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkovNearPeriodicChainCesaro(t *testing.T) {
	// A "flip" strategy oscillates CC -> DD -> CC deterministically; with a
	// vanishing error rate the chain is nearly periodic, the fixed-point
	// fast path cannot converge, and the Cesàro fallback must deliver the
	// period average: payoffs (R + P)/2 = 2.
	flip, err := strategy.ParsePure("1000") // CC -> D, CD/DC/DD -> C
	if err != nil {
		t.Fatal(err)
	}
	pi0, pi1, err := MarkovPayoff(payoff, flip, flip, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi0-2) > 0.01 || math.Abs(pi1-2) > 0.01 {
		t.Fatalf("near-periodic self-play payoffs (%v,%v), want ~2", pi0, pi1)
	}
	// The generalised sparse chain must agree.
	n0, n1, err := MarkovPayoffN(payoff, flip, flip, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n0-2) > 0.01 || math.Abs(n1-2) > 0.01 {
		t.Fatalf("sparse near-periodic payoffs (%v,%v), want ~2", n0, n1)
	}
}

func TestExactPureKnownMatchups(t *testing.T) {
	for _, mem := range []int{1, 2, 3} {
		sp := strategy.NewSpace(mem)
		pi0, pi1, err := ExactPure(payoff, strategy.TFT(sp), strategy.AllD(sp))
		if err != nil {
			t.Fatal(err)
		}
		// Long-run: TFT defects forever after round 1 -> cycle payoff (1,1).
		if pi0 != 1 || pi1 != 1 {
			t.Errorf("memory %d TFT vs ALLD long-run (%v,%v), want (1,1)", mem, pi0, pi1)
		}
		pi0, pi1, err = ExactPure(payoff, strategy.WSLS(sp), strategy.AllD(sp))
		if err != nil {
			t.Fatal(err)
		}
		if pi0 != 0.5 || pi1 != 2.5 {
			t.Errorf("memory %d WSLS vs ALLD long-run (%v,%v), want (0.5,2.5)", mem, pi0, pi1)
		}
	}
}

func TestExactPureMatchesMarkovMemoryOne(t *testing.T) {
	master := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		s0 := strategy.RandomPure(sp1(), master)
		s1 := strategy.RandomPure(sp1(), master)
		c0, c1, err := ExactPure(payoff, s0, s1)
		if err != nil {
			t.Fatal(err)
		}
		m0, m1, err := MarkovPayoff(payoff, s0, s1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c0-m0) > 1e-6 || math.Abs(c1-m1) > 1e-6 {
			t.Fatalf("trial %d: cycle (%v,%v) vs markov (%v,%v)", trial, c0, c1, m0, m1)
		}
	}
}

func TestExactPureMatchesLongSampledGame(t *testing.T) {
	// For any memory depth, a long sampled game's mean converges to the
	// cycle average (transient contributions vanish).
	master := rng.New(6)
	rules := game.DefaultRules()
	rules.Rounds = 100000
	for _, mem := range []int{2, 4, 6} {
		sp := strategy.NewSpace(mem)
		s0 := strategy.RandomPure(sp, master)
		s1 := strategy.RandomPure(sp, master)
		e0, e1, err := ExactPure(rules.Payoff, s0, s1)
		if err != nil {
			t.Fatal(err)
		}
		res := game.Play(rules, s0, s1, master)
		if math.Abs(res.Mean0()-e0) > 0.01 || math.Abs(res.Mean1()-e1) > 0.01 {
			t.Errorf("memory %d: sampled (%v,%v) vs exact (%v,%v)", mem, res.Mean0(), res.Mean1(), e0, e1)
		}
	}
}

func TestExactPureMismatchedSpaces(t *testing.T) {
	if _, _, err := ExactPure(payoff, strategy.AllC(sp1()), strategy.AllC(strategy.NewSpace(2))); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
}

func BenchmarkMarkovPayoff(b *testing.B) {
	s0 := strategy.GTFT(sp1(), 1.0/3.0)
	s1 := strategy.WSLS(sp1())
	for i := 0; i < b.N; i++ {
		if _, _, err := MarkovPayoff(payoff, s0, s1, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactPureMemory6(b *testing.B) {
	sp := strategy.NewSpace(6)
	master := rng.New(7)
	s0 := strategy.RandomPure(sp, master)
	s1 := strategy.RandomPure(sp, master)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactPure(payoff, s0, s1); err != nil {
			b.Fatal(err)
		}
	}
}
