// Package topology models the interconnect geometry of Blue Gene-class
// machines: a 3D torus for point-to-point traffic plus a dedicated
// collective (tree) network, as described in the paper's §V and the Blue
// Gene overview papers it cites.
//
// The performance model uses this package to convert logical communication
// (messages between ranks) into physical cost (hops on the torus, levels of
// the collective tree), including the paper's observed penalty for
// non-power-of-two partitions (§VI-D: scaling from 64 to 72 racks cost 15%).
package topology

import (
	"fmt"
	"math"
)

// Coord is a location on the 3D torus.
type Coord struct {
	X, Y, Z int
}

// Torus is a 3D torus of dimensions X*Y*Z nodes.
type Torus struct {
	DX, DY, DZ int
}

// NewTorus constructs a torus; all dimensions must be positive.
func NewTorus(dx, dy, dz int) (Torus, error) {
	if dx < 1 || dy < 1 || dz < 1 {
		return Torus{}, fmt.Errorf("topology: invalid torus %dx%dx%d", dx, dy, dz)
	}
	return Torus{DX: dx, DY: dy, DZ: dz}, nil
}

// Nodes returns the node count.
func (t Torus) Nodes() int { return t.DX * t.DY * t.DZ }

// CoordOf maps a rank to its torus coordinate in XYZ order (X fastest),
// the default Blue Gene mapping. It panics if the rank is out of range.
func (t Torus) CoordOf(rank int) Coord {
	if rank < 0 || rank >= t.Nodes() {
		panic(fmt.Sprintf("topology: rank %d out of torus of %d nodes", rank, t.Nodes()))
	}
	return Coord{
		X: rank % t.DX,
		Y: (rank / t.DX) % t.DY,
		Z: rank / (t.DX * t.DY),
	}
}

// axisDist is the wrap-around distance along one torus axis.
func axisDist(a, b, dim int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := dim - d; wrap < d {
		return wrap
	}
	return d
}

// Diameter returns the maximum hop distance between any two nodes.
func (t Torus) Diameter() int {
	return t.DX/2 + t.DY/2 + t.DZ/2
}

// MeanHops returns the expected hop distance between two uniformly random
// nodes — the quantity that prices the paper's random (teacher, learner)
// fitness returns to the Nature Agent. For even dimension d the mean
// per-axis distance is d/4; for odd d it is (d^2-1)/(4d).
func (t Torus) MeanHops() float64 {
	return meanAxis(t.DX) + meanAxis(t.DY) + meanAxis(t.DZ)
}

func meanAxis(d int) float64 {
	if d == 1 {
		return 0
	}
	if d%2 == 0 {
		return float64(d) / 4
	}
	return float64(d*d-1) / float64(4*d)
}

// TreeDepth returns the depth of the binomial/collective tree over n nodes:
// ceil(log2 n); 0 for a single node.
func TreeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// IsPowerOfTwo reports whether n is a power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// BalancedShape factors n nodes into the most cubic torus X>=Y>=Z
// achievable with integer factors, preferring near-equal dimensions —
// the shape machine partitions approximate. Works for any n >= 1.
func BalancedShape(n int) Torus {
	if n < 1 {
		panic("topology: BalancedShape needs n >= 1")
	}
	best := Torus{DX: n, DY: 1, DZ: 1}
	bestScore := shapeScore(best)
	for z := 1; z*z*z <= n; z++ {
		if n%z != 0 {
			continue
		}
		m := n / z
		for y := z; y*y <= m; y++ {
			if m%y != 0 {
				continue
			}
			cand := Torus{DX: m / y, DY: y, DZ: z}
			if s := shapeScore(cand); s < bestScore {
				best, bestScore = cand, s
			}
		}
	}
	return best
}

// shapeScore is lower for more cubic shapes (smaller surface/volume).
func shapeScore(t Torus) float64 {
	return float64(t.Diameter())
}

// MappingPenalty returns the multiplicative slowdown the paper attributes
// to partition shape: 1.0 for power-of-two node counts (which map cleanly
// onto the torus), rising toward the paper's observed 15% for the full
// 72-rack 294,912-processor system (§VI-D). The penalty scales with how far
// the count is from the next power of two below it.
func MappingPenalty(nodes int) float64 {
	if nodes < 1 {
		panic("topology: MappingPenalty needs nodes >= 1")
	}
	if IsPowerOfTwo(nodes) {
		return 1.0
	}
	lower := 1
	for lower*2 <= nodes {
		lower *= 2
	}
	// Fraction of the machine hanging beyond the clean power-of-two
	// sub-partition; 72 racks vs 64 gives 8/64 = 0.125 excess and the paper
	// reports ~15% degradation, so a slope of ~1.2 reproduces it.
	excess := float64(nodes-lower) / float64(lower)
	return 1.0 + 1.2*excess
}

// BlueGene partition catalogue (nodes per rack differs between L and P in
// cores; we model processor counts as the paper reports them).
const (
	// BGPProcsPerRack is Blue Gene/P: 1,024 quad-core nodes = 4,096
	// processors per rack.
	BGPProcsPerRack = 4096
	// BGLProcsPerRack is Blue Gene/L: 1,024 dual-core nodes = 2,048
	// processors per rack.
	BGLProcsPerRack = 2048
)
