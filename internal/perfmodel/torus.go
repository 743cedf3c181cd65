package perfmodel

import "math"

// The interconnect geometry the model prices communication on: Blue Gene's
// 3D torus for point-to-point traffic plus its dedicated collective (tree)
// network (the paper's §V), and the penalty it observed on non-power-of-two
// partitions (§VI-D: scaling from 64 to 72 racks cost 15%).

// torus is a 3D torus of dx×dy×dz nodes.
type torus struct {
	dx, dy, dz int
}

// diameter is the maximum hop distance between any two nodes.
func (t torus) diameter() int {
	return t.dx/2 + t.dy/2 + t.dz/2
}

// meanHops is the expected hop distance between two uniformly random nodes
// — the quantity that prices the paper's random (teacher, learner) fitness
// returns to the Nature Agent. For even dimension d the mean per-axis
// distance is d/4; for odd d it is (d^2-1)/(4d).
func (t torus) meanHops() float64 {
	return meanAxis(t.dx) + meanAxis(t.dy) + meanAxis(t.dz)
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

// treeDepth is the depth of the binomial/collective tree over n nodes:
// ceil(log2 n); 0 for a single node.
func treeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// balancedShape factors n >= 1 nodes into the torus dx>=dy>=dz of smallest
// diameter achievable with integer factors — the near-cubic shape machine
// partitions approximate.
func balancedShape(n int) torus {
	best := torus{dx: n, dy: 1, dz: 1}
	for z := 1; z*z*z <= n; z++ {
		if n%z != 0 {
			continue
		}
		m := n / z
		for y := z; y*y <= m; y++ {
			if m%y != 0 {
				continue
			}
			if cand := (torus{dx: m / y, dy: y, dz: z}); cand.diameter() < best.diameter() {
				best = cand
			}
		}
	}
	return best
}

// mappingPenalty is the multiplicative slowdown the paper attributes to
// partition shape: 1.0 for power-of-two node counts (which map cleanly onto
// the torus), rising toward the paper's observed 15% for the full 72-rack
// 294,912-processor system (§VI-D). The penalty scales with how far the
// count (>= 1) is from the next power of two below it.
func mappingPenalty(nodes int) float64 {
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
