package perfmodel

import (
	"fmt"
	"math"
)

// The paper's Fig. 5 discussion distils to a rule of thumb: below a certain
// per-processor workload, "the computation per processor starts to be less
// than the communication overhead involved in the population dynamics" and
// efficiency decays. GamesKnee computes that threshold analytically for any
// machine and calibration, in the model's natural work unit: IPD matches
// per worker per generation.
//
// With per-generation compute g×gameSec on each worker and communication
// cost comm, a processor-count doubling (halving g) has efficiency
//
//	eff(g) = (g·c + comm) / (g·c + 2·comm)
//
// so the minimum workload sustaining eff ≥ target is
//
//	g ≥ comm · (2·target − 1) / (c · (1 − target)).

// GamesKnee returns the minimum matches per worker per generation for a
// processor-count doubling to retain at least targetEff parallel
// efficiency, on the given machine at the given memory depth.
func GamesKnee(m Machine, cal Calibration, memory int, pcRate float64, targetEff float64) (float64, error) {
	if err := cal.Validate(); err != nil {
		return 0, err
	}
	if memory < 1 || memory > 6 {
		return 0, fmt.Errorf("perfmodel: memory %d out of [1,6]", memory)
	}
	if targetEff <= 0.5 || targetEff >= 1 {
		return 0, fmt.Errorf("perfmodel: target efficiency %v out of (0.5,1)", targetEff)
	}
	scaled := cal.Scaled(m)
	c := scaled.GameSeconds[memory]
	// Representative partition for the communication term.
	const procs = 4096
	comm := commPerGeneration(m, procs, memory, pcRate)
	g := comm * (2*targetEff - 1) / (c * (1 - targetEff))
	return math.Max(g, 0), nil
}
