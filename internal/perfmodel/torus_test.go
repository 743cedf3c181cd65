package perfmodel

import (
	"math"
	"testing"
)

// hops is the minimal hop count between two ranks placed in XYZ order (X
// fastest), the brute-force reference for diameter and meanHops.
func hops(t torus, a, b int) int {
	axis := func(a, b, dim int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		return min(d, dim-d)
	}
	return axis(a%t.dx, b%t.dx, t.dx) +
		axis(a/t.dx%t.dy, b/t.dx%t.dy, t.dy) +
		axis(a/(t.dx*t.dy), b/(t.dx*t.dy), t.dz)
}

func TestDiameter(t *testing.T) {
	tor := torus{dx: 8, dy: 8, dz: 8}
	if tor.diameter() != 12 {
		t.Fatalf("diameter = %d", tor.diameter())
	}
	// No pair exceeds the diameter.
	max := 0
	for a := 0; a < 512; a += 37 {
		for b := 0; b < 512; b += 41 {
			if h := hops(tor, a, b); h > max {
				max = h
			}
		}
	}
	if max > tor.diameter() {
		t.Fatalf("observed hops %d exceed diameter %d", max, tor.diameter())
	}
}

func TestMeanHopsMatchesSampling(t *testing.T) {
	tor := torus{dx: 4, dy: 6, dz: 5}
	nodes := tor.dx * tor.dy * tor.dz
	total := 0
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			total += hops(tor, a, b)
		}
	}
	exact := float64(total) / float64(nodes*nodes)
	if math.Abs(tor.meanHops()-exact) > 1e-9 {
		t.Fatalf("meanHops = %v, exhaustive mean = %v", tor.meanHops(), exact)
	}
}

func TestMeanHopsDegenerate(t *testing.T) {
	if (torus{dx: 1, dy: 1, dz: 1}).meanHops() != 0 {
		t.Fatal("single node mean hops nonzero")
	}
}

func TestTreeDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 262144: 18, 294912: 19}
	for n, want := range cases {
		if got := treeDepth(n); got != want {
			t.Errorf("treeDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBalancedShape(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 512, 1024, 4096, 294912} {
		tor := balancedShape(n)
		if tor.dx*tor.dy*tor.dz != n {
			t.Fatalf("balancedShape(%d) = %+v", n, tor)
		}
	}
	// 64 should be 4x4x4, the perfectly cubic factorisation.
	if tor := balancedShape(64); tor != (torus{dx: 4, dy: 4, dz: 4}) {
		t.Fatalf("balancedShape(64) = %+v, want 4x4x4", tor)
	}
}

func TestMappingPenalty(t *testing.T) {
	for _, n := range []int{1, 2, 1024, 262144} {
		if mappingPenalty(n) != 1.0 {
			t.Errorf("power of two %d penalised: %v", n, mappingPenalty(n))
		}
	}
	for _, n := range []int{3, 6, 294912} {
		if mappingPenalty(n) <= 1.0 {
			t.Errorf("non-power of two %d not penalised: %v", n, mappingPenalty(n))
		}
	}
	// The paper's 72-rack observation: ~15% degradation.
	p := mappingPenalty(294912)
	if p < 1.10 || p > 1.20 {
		t.Fatalf("72-rack penalty = %v, want ~1.15", p)
	}
	// Monotone in the excess.
	if mappingPenalty(262144+4096) >= mappingPenalty(294912) {
		t.Fatal("penalty not monotone in excess nodes")
	}
}
