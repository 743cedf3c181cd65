package analysis

import (
	"math"
	"testing"

	"repro/internal/strategy"
)

func TestNeutralFixationBenchmark(t *testing.T) {
	if NeutralFixation(10) != 0.1 {
		t.Fatal("neutral benchmark wrong")
	}
	// A mutant identical in payoff terms to the resident (TFT vs ALLC in a
	// noise-free world: both always cooperate) must fixate at exactly 1/N
	// for any beta.
	cfg := FixationConfig{N: 8, Beta: 2}
	rho, err := FixationProbability(cfg, strategy.TFT(sp1()), strategy.AllC(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1.0/8) > 1e-12 {
		t.Fatalf("neutral fixation = %v, want 1/8", rho)
	}
}

func TestFixationFavoursALLDInvadingALLC(t *testing.T) {
	cfg := FixationConfig{N: 6, Beta: 0.5}
	out, err := AnalyzeInvasion(cfg, strategy.AllD(sp1()), strategy.AllC(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Favoured {
		t.Fatal("ALLD invading ALLC should be favoured")
	}
	// Constant payoff gap delta = 1.6 per round gives the closed form
	// rho = 1/(1 + sum_{j=1..5} exp(-0.8 j)).
	want := 0.0
	for j := 1; j <= 5; j++ {
		want += math.Exp(-0.8 * float64(j))
	}
	want = 1 / (1 + want)
	if math.Abs(out.Fixation-want) > 1e-9 {
		t.Fatalf("fixation = %v, closed form %v", out.Fixation, want)
	}
}

func TestFixationDisfavoursALLDInvadingTFT(t *testing.T) {
	// TFT residents punish: ALLD earns ~P against them while they earn ~R
	// among themselves, so the lone defector's fixation must fall below
	// neutral.
	cfg := FixationConfig{N: 10, Beta: 1}
	out, err := AnalyzeInvasion(cfg, strategy.AllD(sp1()), strategy.TFT(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Favoured {
		t.Fatalf("ALLD invading TFT favoured (rho=%v, neutral=%v)", out.Fixation, out.Neutral)
	}
}

func TestFixationBetaZeroIsNeutral(t *testing.T) {
	cfg := FixationConfig{N: 12, Beta: 0}
	rho, err := FixationProbability(cfg, strategy.AllD(sp1()), strategy.AllC(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1.0/12) > 1e-12 {
		t.Fatalf("beta-0 fixation %v, want 1/12", rho)
	}
}

func TestFixationStrongSelectionExtremes(t *testing.T) {
	// Strong selection: a strongly favoured mutant fixates almost surely;
	// a strongly disfavoured one almost never (underflow path returns 0).
	cfg := FixationConfig{N: 20, Beta: 50}
	up, err := FixationProbability(cfg, strategy.AllD(sp1()), strategy.AllC(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	if up < 0.999 {
		t.Fatalf("strongly favoured fixation %v", up)
	}
	down, err := FixationProbability(cfg, strategy.AllC(sp1()), strategy.AllD(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	if down > 1e-6 {
		t.Fatalf("strongly disfavoured fixation %v", down)
	}
}

func TestFixationErrorsShiftWSLSvsTFT(t *testing.T) {
	// Without errors WSLS and TFT coexist neutrally-ish (both sustain
	// cooperation); with errors WSLS self-play is better than TFT
	// self-play, so WSLS invading TFT becomes favoured.
	noErr := FixationConfig{N: 10, Beta: 5}
	withErr := FixationConfig{N: 10, Beta: 5, ErrorRate: 0.01}
	a, err := FixationProbability(noErr, strategy.WSLS(sp1()), strategy.TFT(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FixationProbability(withErr, strategy.WSLS(sp1()), strategy.TFT(sp1()))
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("errors should raise WSLS's fixation into TFT: %v -> %v", a, b)
	}
	if b <= NeutralFixation(10) {
		t.Fatalf("WSLS into TFT under errors should be favoured: %v", b)
	}
}

func TestFixationValidation(t *testing.T) {
	if _, err := FixationProbability(FixationConfig{N: 1, Beta: 1}, strategy.AllC(sp1()), strategy.AllD(sp1())); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := FixationProbability(FixationConfig{N: 4, Beta: -1}, strategy.AllC(sp1()), strategy.AllD(sp1())); err == nil {
		t.Fatal("negative beta accepted")
	}
	if _, err := FixationProbability(FixationConfig{N: 4, Beta: math.NaN()}, strategy.AllC(sp1()), strategy.AllD(sp1())); err == nil {
		t.Fatal("NaN beta accepted")
	}
	for _, bad := range []float64{2, math.NaN()} {
		if _, err := FixationProbability(FixationConfig{N: 4, Beta: 1, ErrorRate: bad}, strategy.AllC(sp1()), strategy.AllD(sp1())); err == nil {
			t.Fatalf("error rate %v accepted", bad)
		}
	}
	if _, err := FixationProbability(FixationConfig{N: 4, Beta: 1}, strategy.AllC(sp1()), strategy.AllC(strategy.NewSpace(2))); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
}
