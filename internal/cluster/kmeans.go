// Package cluster implements Lloyd's k-means algorithm with k-means++
// seeding, used — as in the paper's Fig. 2 — to group the final population's
// strategies so that prevalent strategies (e.g. WSLS) stand out.
//
// Points are strategy response vectors: each strategy becomes the vector of
// its per-state cooperation probabilities (0/1 for pure strategies), so
// Euclidean distance is the natural dissimilarity.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/strategy"
)

// Result is the outcome of a k-means run.
type Result struct {
	// Centroids are the k cluster centres.
	Centroids [][]float64
	// Assign maps each input point to its cluster index.
	Assign []int
	// Sizes counts points per cluster.
	Sizes []int
	// Inertia is the total within-cluster squared distance.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// KMeans clusters the points into k groups. maxIter bounds the Lloyd
// iterations (convergence usually comes earlier); src drives the k-means++
// seeding. Points must be non-empty, equal-length vectors with k in
// [1, len(points)].
func KMeans(points [][]float64, k, maxIter int, src *rng.Source) (*Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("cluster: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	if k < 1 || k > len(points) {
		return nil, fmt.Errorf("cluster: k=%d out of [1,%d]", k, len(points))
	}
	if maxIter < 1 {
		return nil, fmt.Errorf("cluster: maxIter %d < 1", maxIter)
	}

	centroids := seedPlusPlus(points, k, src)
	assign := make([]int, len(points))
	sizes := make([]int, k)
	res := &Result{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		// Assignment step.
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || iter == 0 {
				changed = changed || assign[i] != best
				assign[i] = best
			}
		}
		if iter > 0 && !changed {
			break
		}
		// Update step.
		for c := range centroids {
			for d := range centroids[c] {
				centroids[c][d] = 0
			}
			sizes[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			sizes[c]++
			for d, v := range p {
				centroids[c][d] += v
			}
		}
		for c := range centroids {
			if sizes[c] == 0 {
				// Re-seed an empty cluster on the point farthest from its
				// centroid, the standard Lloyd repair.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			inv := 1.0 / float64(sizes[c])
			for d := range centroids[c] {
				centroids[c][d] *= inv
			}
		}
	}
	// Final bookkeeping.
	for c := range sizes {
		sizes[c] = 0
	}
	inertia := 0.0
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			if d := sqDist(p, cen); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		sizes[best]++
		inertia += bestD
	}
	res.Centroids = centroids
	res.Assign = assign
	res.Sizes = sizes
	res.Inertia = inertia
	return res, nil
}

// seedPlusPlus picks k initial centroids with k-means++ (first uniform,
// subsequent proportional to squared distance from the nearest chosen).
func seedPlusPlus(points [][]float64, k int, src *rng.Source) [][]float64 {
	dim := len(points[0])
	centroids := make([][]float64, 0, k)
	first := src.Intn(len(points))
	centroids = append(centroids, cloneVec(points[first], dim))
	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = sqDist(p, centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			// All points coincide with chosen centroids; pick uniformly.
			pick = src.Intn(len(points))
		} else {
			r := src.Float64() * total
			cum := 0.0
			pick = len(points) - 1
			for i, d := range d2 {
				cum += d
				if cum >= r {
					pick = i
					break
				}
			}
		}
		c := cloneVec(points[pick], dim)
		centroids = append(centroids, c)
		for i, p := range points {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

func cloneVec(v []float64, dim int) []float64 {
	out := make([]float64, dim)
	copy(out, v)
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// StrategyVectors converts strategies to their cooperation-probability
// vectors, the point representation Fig. 2 clusters (rows = SSets,
// columns = states).
func StrategyVectors(strategies []strategy.Strategy) [][]float64 {
	out := make([][]float64, len(strategies))
	for i, s := range strategies {
		n := s.Space().NumStates()
		v := make([]float64, n)
		for st := 0; st < n; st++ {
			v[st] = s.CooperateProb(uint32(st))
		}
		out[i] = v
	}
	return out
}

// DominantCluster returns the index and population fraction of the largest
// cluster — Fig. 2's "85% of all SSets have adopted [WSLS]" readout.
func (r *Result) DominantCluster() (idx int, fraction float64) {
	total := 0
	for c, n := range r.Sizes {
		total += n
		if n > r.Sizes[idx] {
			idx = c
		}
	}
	if total == 0 {
		return 0, 0
	}
	return idx, float64(r.Sizes[idx]) / float64(total)
}

// RoundCentroid snaps a centroid to the nearest pure strategy in the given
// space, identifying which classic (if any) a cluster converged to.
func RoundCentroid(centroid []float64, sp strategy.Space) (*strategy.Pure, error) {
	if len(centroid) != sp.NumStates() {
		return nil, fmt.Errorf("cluster: centroid dimension %d != %d states", len(centroid), sp.NumStates())
	}
	return strategy.MixedFromProbs(sp, centroid).NearestPure(), nil
}
