package topology

import (
	"math"
	"testing"
)

func TestNewTorusValidation(t *testing.T) {
	if _, err := NewTorus(0, 1, 1); err == nil {
		t.Fatal("zero dimension accepted")
	}
	tor, err := NewTorus(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Nodes() != 32 {
		t.Fatalf("nodes = %d", tor.Nodes())
	}
}

func TestCoordRankRoundTrip(t *testing.T) {
	tor, _ := NewTorus(3, 5, 7)
	for r := 0; r < tor.Nodes(); r++ {
		c := tor.CoordOf(r)
		if got := c.X + tor.DX*(c.Y+tor.DY*c.Z); got != r {
			t.Fatalf("rank %d round-trips to %d", r, got)
		}
	}
}

func TestCoordOfPanics(t *testing.T) {
	tor, _ := NewTorus(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tor.CoordOf(8)
}

// hops is the minimal hop count between two ranks, the brute-force reference
// for Diameter and MeanHops.
func hops(t Torus, a, b int) int {
	ca, cb := t.CoordOf(a), t.CoordOf(b)
	return axisDist(ca.X, cb.X, t.DX) + axisDist(ca.Y, cb.Y, t.DY) + axisDist(ca.Z, cb.Z, t.DZ)
}

func TestDiameter(t *testing.T) {
	tor, _ := NewTorus(8, 8, 8)
	if tor.Diameter() != 12 {
		t.Fatalf("diameter = %d", tor.Diameter())
	}
	// No pair exceeds the diameter.
	max := 0
	for a := 0; a < tor.Nodes(); a += 37 {
		for b := 0; b < tor.Nodes(); b += 41 {
			if h := hops(tor, a, b); h > max {
				max = h
			}
		}
	}
	if max > tor.Diameter() {
		t.Fatalf("observed hops %d exceed diameter %d", max, tor.Diameter())
	}
}

func TestMeanHopsMatchesSampling(t *testing.T) {
	tor, _ := NewTorus(4, 6, 5)
	total, count := 0, 0
	for a := 0; a < tor.Nodes(); a++ {
		for b := 0; b < tor.Nodes(); b++ {
			total += hops(tor, a, b)
			count++
		}
	}
	exact := float64(total) / float64(count)
	if math.Abs(tor.MeanHops()-exact) > 1e-9 {
		t.Fatalf("MeanHops = %v, exhaustive mean = %v", tor.MeanHops(), exact)
	}
}

func TestMeanHopsDegenerate(t *testing.T) {
	tor, _ := NewTorus(1, 1, 1)
	if tor.MeanHops() != 0 {
		t.Fatal("single node mean hops nonzero")
	}
}

func TestTreeDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 262144: 18, 294912: 19}
	for n, want := range cases {
		if got := TreeDepth(n); got != want {
			t.Errorf("TreeDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024, 262144} {
		if !IsPowerOfTwo(n) {
			t.Errorf("%d should be a power of two", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 294912} {
		if IsPowerOfTwo(n) {
			t.Errorf("%d should not be a power of two", n)
		}
	}
}

func TestBalancedShape(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 512, 1024, 4096, 294912} {
		tor := BalancedShape(n)
		if tor.Nodes() != n {
			t.Fatalf("BalancedShape(%d) has %d nodes", n, tor.Nodes())
		}
	}
	// 64 should be 4x4x4, the perfectly cubic factorisation.
	tor := BalancedShape(64)
	if tor.DX != 4 || tor.DY != 4 || tor.DZ != 4 {
		t.Fatalf("BalancedShape(64) = %+v, want 4x4x4", tor)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BalancedShape(0) did not panic")
		}
	}()
	BalancedShape(0)
}

func TestMappingPenalty(t *testing.T) {
	if MappingPenalty(1024) != 1.0 {
		t.Fatal("power-of-two penalised")
	}
	if MappingPenalty(262144) != 1.0 {
		t.Fatal("64 racks penalised")
	}
	// The paper's 72-rack observation: ~15% degradation.
	p := MappingPenalty(294912)
	if p < 1.10 || p > 1.20 {
		t.Fatalf("72-rack penalty = %v, want ~1.15", p)
	}
	// Monotone in the excess.
	if MappingPenalty(262144+4096) >= MappingPenalty(294912) {
		t.Fatal("penalty not monotone in excess nodes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MappingPenalty(0) did not panic")
		}
	}()
	MappingPenalty(0)
}
