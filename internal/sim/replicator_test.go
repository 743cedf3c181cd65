package sim_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/replicator"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// The engine's large-population limit. Under the unconditional Fermi rule
// with PC rate r, a generation moves one SSet of S from type j to type i
// with probability r·x_i·x_j·F(π_i−π_j), so the expected drift of x_i per
// generation is (r/S)·Σ_j x_i·x_j·tanh(β(π_i−π_j)/2). At weak selection
// tanh(βd/2) ≈ βd/2, and in units of S/r generations this is the replicator
// equation dx_i/dt = (β/2)·x_i·(π_i − π̄), which replicator.Step integrates
// with Selection = (β/2)·dt per step.
//
// The bound comes from S, not from a tolerance: each generation moves x_i by
// ±1/S with probability ≈ x_i(1−x_i) at neutrality, so after t time units
// one seed's x_i has variance t·x_i(1−x_i)/S, and the mean over n seeds
// t·x_i(1−x_i)/(S·n). The test holds every z = (engine − replicator)/sd
// within oracleZ.
const (
	oracleS     = 4096 // SSets
	oracleSeeds = 8    // independent engine runs pooled
	oracleBeta  = 0.2  // weak enough for tanh ≈ linear, strong enough to beat drift by t = 10
	oracleDt    = 0.01 // replicator steps per time unit: 1/oracleDt
	oracleError = 0.01 // execution error, folded into the exact payoffs
	// oracleZ is the largest |z| accepted: six comparisons at a Gaussian
	// tail of 6e-5 each, so a correct engine fails about once in 2500 seed
	// sets.
	oracleZ = 4
)

var oracleTimes = []int{5, 10}

// oracleTypes are the three strategy types the population starts with, one
// third each.
func oracleTypes() (names []string, types []*strategy.Pure) {
	sp := strategy.NewSpace(1)
	return []string{"ALLD", "TFT", "WSLS"}, []*strategy.Pure{strategy.AllD(sp), strategy.TFT(sp), strategy.WSLS(sp)}
}

// replicatorFractions returns frac[k][i], type i's frequency under the
// replicator equation at selection beta after oracleTimes[k] time units.
func replicatorFractions(t *testing.T, beta float64) [][]float64 {
	_, types := oracleTypes()
	atoms := make([]strategy.Strategy, len(types))
	for i, s := range types {
		atoms[i] = s
	}
	pop, err := replicator.NewFromStrategies(replicator.Config{
		ErrorRate: oracleError,
		Selection: beta / 2 * oracleDt,
	}, atoms)
	if err != nil {
		t.Fatal(err)
	}
	perUnit := int(math.Round(1 / oracleDt))
	var frac [][]float64
	step := 0
	for _, tu := range oracleTimes {
		for ; step < tu*perUnit; step++ {
			pop.Step()
		}
		row := make([]float64, len(types))
		for i, s := range types {
			row[i] = pop.FractionNear(s)
		}
		frac = append(frac, row)
	}
	return frac
}

// engineFractions runs the engine at selection beta under oracleSeeds seeds
// and returns frac[k][i], type i's fraction at oracleTimes[k] averaged over
// the seeds.
func engineFractions(t *testing.T, beta float64) [][]float64 {
	_, types := oracleTypes()
	initial := make([]strategy.Strategy, oracleS)
	for i := range initial {
		initial[i] = types[i%len(types)]
	}
	last := oracleTimes[len(oracleTimes)-1]
	runs := make([][][]float64, oracleSeeds)
	errs := make([]error, oracleSeeds)
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for seed := range runs {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			cfg := sim.DefaultConfig(1, oracleS)
			cfg.Generations = last * oracleS
			cfg.SampleStride = cfg.Generations
			cfg.PCRate, cfg.Mu, cfg.Beta = 1, 0, beta
			cfg.AllowWorseAdoption = true
			cfg.ExactPayoffs = true
			cfg.Rules.ErrorRate = oracleError
			cfg.Seed = uint64(seed + 1)
			cfg.InitialStrategies = initial
			cfg.Observer = func(gen int, pop *sim.Population, _ sim.Events) {
				// The observer sees the population after generation gen, so
				// gen+1 generations have run.
				for _, tu := range oracleTimes {
					if gen+1 == tu*oracleS {
						row := make([]float64, len(types))
						for i, s := range types {
							row[i] = pop.FractionNear(s)
						}
						runs[seed] = append(runs[seed], row)
					}
				}
			}
			_, errs[seed] = sim.RunSequential(cfg)
		}(seed)
	}
	wg.Wait()
	frac := make([][]float64, len(oracleTimes))
	for k := range frac {
		frac[k] = make([]float64, len(types))
	}
	for seed, run := range runs {
		if errs[seed] != nil {
			t.Fatal(errs[seed])
		}
		for k, row := range run {
			for i, x := range row {
				frac[k][i] += x / oracleSeeds
			}
		}
	}
	return frac
}

// zScores returns z[k][i] = (got − want)/sd with sd the pooled neutral-drift
// standard deviation at oracleTimes[k] around want.
func zScores(got, want [][]float64) [][]float64 {
	z := make([][]float64, len(want))
	for k, row := range want {
		z[k] = make([]float64, len(row))
		for i, x := range row {
			sd := math.Sqrt(float64(oracleTimes[k]) * x * (1 - x) / (oracleS * oracleSeeds))
			z[k][i] = (got[k][i] - x) / sd
		}
	}
	return z
}

// maxAbsZ logs every z and returns the largest |z|.
func maxAbsZ(t *testing.T, got, want [][]float64) float64 {
	names, _ := oracleTypes()
	worst := 0.0
	for k, row := range zScores(got, want) {
		for i, z := range row {
			t.Logf("t=%-2d %-4s engine %.4f replicator %.4f z %+.2f", oracleTimes[k], names[i], got[k][i], want[k][i], z)
			worst = math.Max(worst, math.Abs(z))
		}
	}
	return worst
}

// TestEngineTracksReplicator holds the engine to its S → ∞ oracle: at S =
// 4096 SSets, memory one, exact payoffs, PC rate 1 and no mutation, the type
// fractions of ALLD, TFT and WSLS pooled over eight seeds stay within oracleZ
// standard deviations of the replicator equation at t = 5 and t = 10 (40 960
// generations), each (time, type) z checked in its own subtest. The engine
// at twice the selection strength, measured by the same statistic against
// the same oracle, must fail the bound: the check can see a wrong β.
func TestEngineTracksReplicator(t *testing.T) {
	want := replicatorFractions(t, oracleBeta)
	t.Run("engine", func(t *testing.T) {
		got := engineFractions(t, oracleBeta)
		names, _ := oracleTypes()
		for k, row := range zScores(got, want) {
			for i, z := range row {
				t.Run(fmt.Sprintf("t=%d/%s", oracleTimes[k], names[i]), func(t *testing.T) {
					t.Logf("engine %.4f replicator %.4f z %+.2f", got[k][i], want[k][i], z)
					if math.Abs(z) > oracleZ {
						t.Fatalf("engine strays |z| = %.2f > %v from the replicator equation", math.Abs(z), float64(oracleZ))
					}
				})
			}
		}
	})
	t.Run("double_beta_rejected", func(t *testing.T) {
		if worst := maxAbsZ(t, engineFractions(t, 2*oracleBeta), want); worst <= oracleZ {
			t.Fatalf("an engine at 2β stays within |z| = %.2f <= %v: the statistic cannot see β", worst, float64(oracleZ))
		}
	})
}
