package cluster

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/strategy"
)

// noise is zero-mean uniform noise of standard deviation sd.
func noise(src *rng.Source, sd float64) float64 { return (src.Float64() - 0.5) * sd * math.Sqrt(12) }

// threeBlobs makes three well-separated 2D clusters.
func threeBlobs(src *rng.Source, perBlob int) ([][]float64, []int) {
	centres := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	pts := make([][]float64, 0, 3*perBlob)
	labels := make([]int, 0, 3*perBlob)
	for c, cen := range centres {
		for i := 0; i < perBlob; i++ {
			pts = append(pts, []float64{cen[0] + noise(src, 0.5), cen[1] + noise(src, 0.5)})
			labels = append(labels, c)
		}
	}
	return pts, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	src := rng.New(1)
	pts, labels := threeBlobs(src, 40)
	res, err := KMeans(pts, 3, 100, src)
	if err != nil {
		t.Fatal(err)
	}
	// Every true blob must map to exactly one k-means cluster.
	mapping := map[int]map[int]int{}
	for i, l := range labels {
		if mapping[l] == nil {
			mapping[l] = map[int]int{}
		}
		mapping[l][res.Assign[i]]++
	}
	used := map[int]bool{}
	for blob, assigned := range mapping {
		best, bestN := -1, 0
		total := 0
		for c, n := range assigned {
			total += n
			if n > bestN {
				best, bestN = c, n
			}
		}
		if float64(bestN)/float64(total) < 0.95 {
			t.Fatalf("blob %d split across clusters: %v", blob, assigned)
		}
		if used[best] {
			t.Fatalf("two blobs mapped to cluster %d", best)
		}
		used[best] = true
	}
	if res.Inertia <= 0 {
		t.Fatal("inertia should be positive for noisy blobs")
	}
}

func TestKMeansK1(t *testing.T) {
	src := rng.New(2)
	pts := [][]float64{{1, 1}, {3, 3}, {5, 5}}
	res, err := KMeans(pts, 1, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes[0] != 3 {
		t.Fatalf("sizes = %v", res.Sizes)
	}
	if math.Abs(res.Centroids[0][0]-3) > 1e-12 || math.Abs(res.Centroids[0][1]-3) > 1e-12 {
		t.Fatalf("centroid = %v, want mean (3,3)", res.Centroids[0])
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	src := rng.New(3)
	pts := [][]float64{{0}, {5}, {10}, {20}}
	res, err := KMeans(pts, 4, 50, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("k=n inertia = %v, want 0", res.Inertia)
	}
	seen := map[int]bool{}
	for _, a := range res.Assign {
		if seen[a] {
			t.Fatal("two points share a cluster at k=n")
		}
		seen[a] = true
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	src := rng.New(4)
	pts := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	res, err := KMeans(pts, 2, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("identical points inertia = %v", res.Inertia)
	}
}

func TestKMeansValidation(t *testing.T) {
	src := rng.New(5)
	if _, err := KMeans(nil, 1, 10, src); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := KMeans([][]float64{{}}, 1, 10, src); err == nil {
		t.Fatal("zero-dim accepted")
	}
	if _, err := KMeans([][]float64{{1}, {1, 2}}, 1, 10, src); err == nil {
		t.Fatal("ragged points accepted")
	}
	if _, err := KMeans([][]float64{{1}}, 2, 10, src); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := KMeans([][]float64{{1}}, 0, 10, src); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans([][]float64{{1}}, 1, 0, src); err == nil {
		t.Fatal("maxIter 0 accepted")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := threeBlobs(rng.New(6), 30)
	a, err := KMeans(pts, 3, 100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, 3, 100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different clustering")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed, different inertia")
	}
}

func TestKMeansInertiaNonIncreasingInK(t *testing.T) {
	// More clusters can only reduce (or keep) the best within-cluster
	// scatter; verify across a k sweep with shared data.
	pts, _ := threeBlobs(rng.New(9), 25)
	prev := 1e18
	for k := 1; k <= 6; k++ {
		res, err := KMeans(pts, k, 100, rng.New(10))
		if err != nil {
			t.Fatal(err)
		}
		// Lloyd is a local optimiser, so allow small non-monotonic wiggle
		// from unlucky seeding; large inversions indicate a bug.
		if res.Inertia > prev*1.10 {
			t.Fatalf("k=%d inertia %v far above k=%d inertia %v", k, res.Inertia, k-1, prev)
		}
		if res.Inertia < prev {
			prev = res.Inertia
		}
	}
}

func TestStrategyVectors(t *testing.T) {
	sp := strategy.NewSpace(1)
	vecs := StrategyVectors([]strategy.Strategy{
		strategy.WSLS(sp),
		strategy.MixedFromProbs(sp, []float64{0.25, 0.5, 0.75, 1.0}),
	})
	if len(vecs) != 2 {
		t.Fatalf("%d vectors", len(vecs))
	}
	// WSLS (binary order 0110 over defection) cooperates in states 0,3.
	want := []float64{1, 0, 0, 1}
	for i, w := range want {
		if vecs[0][i] != w {
			t.Fatalf("WSLS vector = %v", vecs[0])
		}
	}
	if vecs[1][0] != 0.25 || vecs[1][3] != 1.0 {
		t.Fatalf("mixed vector = %v", vecs[1])
	}
}

func TestDominantCluster(t *testing.T) {
	r := &Result{Sizes: []int{10, 85, 5}}
	idx, frac := r.DominantCluster()
	if idx != 1 || frac != 0.85 {
		t.Fatalf("dominant = %d (%v)", idx, frac)
	}
	empty := &Result{Sizes: []int{0}}
	if _, f := empty.DominantCluster(); f != 0 {
		t.Fatal("empty dominant fraction nonzero")
	}
}

func TestRoundCentroid(t *testing.T) {
	sp := strategy.NewSpace(1)
	p, err := RoundCentroid([]float64{0.9, 0.2, 0.1, 0.8}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(strategy.WSLS(sp)) {
		t.Fatalf("centroid rounded to %v, want WSLS", p)
	}
	if _, err := RoundCentroid([]float64{1, 2}, sp); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

// End-to-end: cluster a synthetic "final population" that is 85% WSLS plus
// noise, the exact Fig. 2 readout path.
func TestFig2Readout(t *testing.T) {
	sp := strategy.NewSpace(1)
	src := rng.New(8)
	var strategies []strategy.Strategy
	wsls := strategy.WSLS(sp)
	for i := 0; i < 85; i++ {
		// WSLS with small probabilistic jitter (MixedFromProbs clamps).
		jit := func() float64 { return noise(src, 0.05) }
		strategies = append(strategies, strategy.MixedFromProbs(sp, []float64{1 + jit(), jit(), jit(), 1 + jit()}))
	}
	for i := 0; i < 15; i++ {
		strategies = append(strategies, strategy.RandomMixed(sp, src))
	}
	res, err := KMeans(StrategyVectors(strategies), 4, 100, src)
	if err != nil {
		t.Fatal(err)
	}
	idx, frac := res.DominantCluster()
	if frac < 0.7 {
		t.Fatalf("dominant cluster holds %v of the population, want >= 0.7", frac)
	}
	rounded, err := RoundCentroid(res.Centroids[idx], sp)
	if err != nil {
		t.Fatal(err)
	}
	if !rounded.Equal(wsls) {
		t.Fatalf("dominant centroid rounds to %v, want WSLS", rounded)
	}
}
