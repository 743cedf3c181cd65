package spatial

import (
	"strings"
	"testing"

	"repro/internal/game"
	"repro/internal/strategy"
)

func TestNewBinaryValidation(t *testing.T) {
	if _, err := NewBinary(2, 10, 1.9, 0.5, 1); err == nil {
		t.Fatal("tiny lattice accepted")
	}
	if _, err := NewBinary(10, 10, 0.9, 0.5, 1); err == nil {
		t.Fatal("b <= 1 accepted")
	}
	if _, err := NewBinary(10, 10, 1.9, 1.5, 1); err == nil {
		t.Fatal("bad coop fraction accepted")
	}
}

func TestBinaryInitialFraction(t *testing.T) {
	l, err := NewBinary(60, 60, 1.9, 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := l.CoopFraction()
	if f < 0.6 || f > 0.8 {
		t.Fatalf("initial coop fraction %v, want ~0.7", f)
	}
}

func TestBinaryAllCooperatorsStable(t *testing.T) {
	l, _ := NewBinary(20, 20, 1.9, 1.0, 3)
	l.Run(20)
	if l.CoopFraction() != 1 {
		t.Fatal("uniform cooperation destabilised itself")
	}
	if l.Generation() != 20 {
		t.Fatalf("generation %d", l.Generation())
	}
}

func TestBinaryAllDefectorsStable(t *testing.T) {
	l, _ := NewBinary(20, 20, 1.9, 0.0, 3)
	l.Run(20)
	if l.CoopFraction() != 0 {
		t.Fatal("uniform defection destabilised itself")
	}
}

func TestBinaryLowTemptationCooperatorsPrevail(t *testing.T) {
	// b < 8/5: even a 50/50 start consolidates into strong cooperation.
	l, _ := NewBinary(40, 40, 1.3, 0.5, 4)
	l.Run(100)
	if f := l.CoopFraction(); f < 0.8 {
		t.Fatalf("coop fraction %v at b=1.3, want > 0.8", f)
	}
}

func TestBinaryHighTemptationDefectorsPrevail(t *testing.T) {
	// b well above 2: defection sweeps.
	l, _ := NewBinary(40, 40, 2.6, 0.9, 5)
	l.Run(100)
	if f := l.CoopFraction(); f > 0.05 {
		t.Fatalf("coop fraction %v at b=2.6, want near 0", f)
	}
}

func TestBinaryChaosRegimeCoexistence(t *testing.T) {
	// Nowak & May's dynamic coexistence in the 1.8 < b < 2 window: on a
	// large enough lattice the cooperator fraction converges to the famous
	// ~0.318 asymptote regardless of the starting mix. (Small lattices
	// suffer wrap-around interference and can collapse — a finite-size
	// effect, not a dynamics property.)
	for _, start := range []float64{0.9, 0.6} {
		l, _ := NewBinary(100, 100, 1.9, start, 6)
		l.Run(150)
		f := l.CoopFraction()
		if f < 0.2 || f > 0.45 {
			t.Errorf("coop fraction %v at b=1.9 from %v start; want ~0.318", f, start)
		}
	}
}

func TestBinarySingleDefectorKaleidoscopeSymmetry(t *testing.T) {
	// A lone defector in a sea of cooperators inside the coexistence
	// window grows a four-fold symmetric pattern (the famous
	// kaleidoscope). The dynamics are deterministic, so symmetry must be
	// exact. The lattice must be large enough that the pattern has not
	// wrapped around within the probed horizon.
	const n = 69 // odd, centre cell exists
	l, _ := NewBinary(n, n, 1.85, 1.0, 7)
	l.SetCell(n/2, n/2, false)
	l.Run(20)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			// Reflect through the centre.
			if l.cells[l.idx(x, y)] != l.cells[l.idx(n-1-x, y)] || l.cells[l.idx(x, y)] != l.cells[l.idx(x, n-1-y)] {
				t.Fatalf("pattern lost symmetry at (%d,%d) after %d steps", x, y, l.Generation())
			}
		}
	}
	f := l.CoopFraction()
	if f == 1 {
		t.Fatal("lone defector died out at b=1.85; it should spread")
	}
	if f < 0.3 {
		t.Fatalf("defection swept (%v cooperation) at b=1.85; should coexist", f)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	a, _ := NewBinary(30, 30, 1.9, 0.5, 8)
	b, _ := NewBinary(30, 30, 1.9, 0.5, 8)
	a.Run(50)
	b.Run(50)
	for y := 0; y < 30; y++ {
		for x := 0; x < 30; x++ {
			if a.cells[a.idx(x, y)] != b.cells[b.idx(x, y)] {
				t.Fatal("identical seeds diverged")
			}
		}
	}
}

func TestBinaryAscii(t *testing.T) {
	l, _ := NewBinary(4, 3, 1.9, 1.0, 9)
	l.SetCell(1, 1, false)
	art := l.Ascii()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 3 || lines[1] != ".#.." {
		t.Fatalf("ascii = %q", art)
	}
}

func TestIPDValidation(t *testing.T) {
	if _, err := NewIPD(IPDConfig{W: 2, H: 5, Memory: 1}); err == nil {
		t.Fatal("tiny lattice accepted")
	}
	if _, err := NewIPD(IPDConfig{W: 5, H: 5, Memory: 0}); err == nil {
		t.Fatal("memory 0 accepted")
	}
	if _, err := NewIPD(IPDConfig{W: 5, H: 5, Memory: 1, Mu: 2}); err == nil {
		t.Fatal("mu 2 accepted")
	}
	bad := IPDConfig{W: 5, H: 5, Memory: 1}
	bad.Rules = game.Rules{Payoff: game.Payoff{R: 1, S: 2, T: 3, P: 4}, Rounds: 5}
	if _, err := NewIPD(bad); err == nil {
		t.Fatal("bad rules accepted")
	}
}

func TestIPDTFTIslandRepelsDefectors(t *testing.T) {
	// Seed a lattice of ALLD with a TFT block: inside the block TFT pairs
	// earn R while ALLD earns ~P, so the reciprocator island must survive
	// imitate-best dynamics.
	sp := strategy.NewSpace(1)
	cfg := IPDConfig{W: 12, H: 12, Memory: 1, Seed: 10}
	cfg.Rules = game.DefaultRules()
	cfg.Rules.Rounds = 50
	l, err := NewIPD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alld := strategy.AllD(sp)
	tft := strategy.TFT(sp)
	for y := 0; y < 12; y++ {
		for x := 0; x < 12; x++ {
			l.SetCell(x, y, alld)
		}
	}
	for y := 4; y < 8; y++ {
		for x := 4; x < 8; x++ {
			l.SetCell(x, y, tft)
		}
	}
	l.Run(10)
	if f := l.FractionNear(tft); f < 0.1 {
		t.Fatalf("TFT island collapsed to %v", f)
	}
}

func TestIPDAllDInvadesAllC(t *testing.T) {
	// A defector cell in an unconditional-cooperator lattice earns T from
	// every neighbour and must spread under imitate-best.
	sp := strategy.NewSpace(1)
	cfg := IPDConfig{W: 9, H: 9, Memory: 1, Seed: 11}
	cfg.Rules = game.DefaultRules()
	cfg.Rules.Rounds = 20
	l, err := NewIPD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allc := strategy.AllC(sp)
	for y := 0; y < 9; y++ {
		for x := 0; x < 9; x++ {
			l.SetCell(x, y, allc)
		}
	}
	l.SetCell(4, 4, strategy.AllD(sp))
	before := l.FractionNear(strategy.AllD(sp))
	l.Run(4)
	after := l.FractionNear(strategy.AllD(sp))
	if after <= before {
		t.Fatalf("ALLD did not spread: %v -> %v", before, after)
	}
}

func TestIPDMutationChurns(t *testing.T) {
	cfg := IPDConfig{W: 8, H: 8, Memory: 1, Mu: 0.5, Seed: 12}
	cfg.Rules = game.DefaultRules()
	cfg.Rules.Rounds = 10
	l, err := NewIPD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Run(3)
	// With heavy mutation the lattice cannot be uniform.
	first := l.cells[l.idx(0, 0)]
	uniform := true
	for y := 0; y < 8 && uniform; y++ {
		for x := 0; x < 8; x++ {
			if !l.cells[l.idx(x, y)].Equal(first) {
				uniform = false
				break
			}
		}
	}
	if uniform {
		t.Fatal("heavy mutation left a uniform lattice")
	}
}

func TestIPDDeterministic(t *testing.T) {
	mk := func() *IPD {
		cfg := IPDConfig{W: 7, H: 7, Memory: 1, Mu: 0.1, Mixed: true, Seed: 13}
		cfg.Rules = game.DefaultRules()
		cfg.Rules.Rounds = 10
		cfg.Rules.ErrorRate = 0.01
		l, err := NewIPD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.Run(5)
		return l
	}
	a, b := mk(), mk()
	for y := 0; y < 7; y++ {
		for x := 0; x < 7; x++ {
			if !a.cells[a.idx(x, y)].Equal(b.cells[b.idx(x, y)]) {
				t.Fatal("identical seeds diverged")
			}
		}
	}
}
