package analysis

import (
	"fmt"
	"math"

	"repro/internal/game"
	"repro/internal/strategy"
)

// Fixation analysis for the pairwise-comparison (Fermi) process the paper's
// population dynamics implement: a finite population of N SSets holding two
// strategies — k mutants and N-k residents — where each step picks a random
// (teacher, learner) pair and the learner adopts with the Fermi probability
// of Equation 1. The mutant's fixation probability has the standard
// birth-death closed form
//
//	rho = 1 / (1 + sum_{j=1..N-1} prod_{k=1..N-1<=j} T-(k)/T+(k))
//
// with T-(k)/T+(k) = exp(-beta * (pi_M(k) - pi_R(k))) for the
// unconditional Fermi rule. Payoffs pi_M(k), pi_R(k) are the exact
// frequency-dependent Markov payoffs at mutant count k, so the whole
// quantity is analytic — and checked against the agent engine in tests.

// FixationConfig parameterises the analysis.
type FixationConfig struct {
	// Payoff is the PD matrix (zero selects the standard one).
	Payoff game.Payoff
	// ErrorRate is the execution-error rate folded into the exact payoffs.
	ErrorRate float64
	// N is the population size (>= 2).
	N int
	// Beta is the Fermi selection intensity (>= 0).
	Beta float64
}

func (c *FixationConfig) validate() error {
	if c.Payoff == (game.Payoff{}) {
		c.Payoff = game.StandardPayoff()
	}
	if err := c.Payoff.Validate(); err != nil {
		return err
	}
	// The negated comparisons reject NaN too, which satisfies neither bound.
	if !(c.ErrorRate >= 0 && c.ErrorRate <= 1) {
		return fmt.Errorf("analysis: error rate %v out of [0,1]", c.ErrorRate)
	}
	if c.N < 2 {
		return fmt.Errorf("analysis: population %d < 2", c.N)
	}
	if !(c.Beta >= 0) {
		return fmt.Errorf("analysis: beta %v < 0", c.Beta)
	}
	return nil
}

// payoffsAt returns the mean payoffs of mutant and resident individuals
// when k of N hold the mutant strategy, excluding self-interaction (each
// SSet plays the other N-1), from the exact pairwise Markov payoffs.
func payoffsAt(cfg FixationConfig, mm, mr, rm, rr float64, k int) (piM, piR float64) {
	n := float64(cfg.N)
	kk := float64(k)
	piM = (kk-1)*mm/(n-1) + (n-kk)*mr/(n-1)
	piR = kk*rm/(n-1) + (n-kk-1)*rr/(n-1)
	return piM, piR
}

// FixationProbability returns the probability that a single mutant playing
// `mutant` fixates in a population of N-1 residents playing `resident`
// under the unconditional Fermi pairwise-comparison process.
func FixationProbability(cfg FixationConfig, mutant, resident strategy.Strategy) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	// The four pairwise exact payoffs (the solver rejects a resident of
	// another space).
	solver := NewSolver(mutant.Space())
	mm, _, err := solver.Payoff(cfg.Payoff, mutant, mutant, cfg.ErrorRate)
	if err != nil {
		return 0, err
	}
	mr, rm, err := solver.Payoff(cfg.Payoff, mutant, resident, cfg.ErrorRate)
	if err != nil {
		return 0, err
	}
	rr, _, err := solver.Payoff(cfg.Payoff, resident, resident, cfg.ErrorRate)
	if err != nil {
		return 0, err
	}
	// rho = 1 / (1 + sum_j prod_{k<=j} exp(-beta*(piM(k)-piR(k)))).
	// Work in log space to avoid under/overflow at large beta or N.
	sum := 1.0
	logProd := 0.0
	for j := 1; j <= cfg.N-1; j++ {
		piM, piR := payoffsAt(cfg, mm, mr, rm, rr, j)
		logProd += float64(-cfg.Beta * (piM - piR))
		if logProd > 700 {
			// The product diverges: fixation probability underflows to ~0.
			return 0, nil
		}
		sum += math.Exp(logProd)
	}
	return 1 / sum, nil
}

// NeutralFixation returns the neutral benchmark 1/N: a mutant with no
// selective difference fixates with this probability. Comparing
// FixationProbability against it classifies the mutant as favoured or
// disfavoured by selection.
func NeutralFixation(n int) float64 { return 1 / float64(n) }

// InvasionAnalysis reports, for a mutant-resident pair, the fixation
// probability, the neutral benchmark, and whether selection favours the
// invasion.
type InvasionAnalysis struct {
	Fixation float64
	Neutral  float64
	Favoured bool
}

// AnalyzeInvasion runs FixationProbability and classifies the result.
func AnalyzeInvasion(cfg FixationConfig, mutant, resident strategy.Strategy) (InvasionAnalysis, error) {
	rho, err := FixationProbability(cfg, mutant, resident)
	if err != nil {
		return InvasionAnalysis{}, err
	}
	neutral := NeutralFixation(cfg.N)
	return InvasionAnalysis{Fixation: rho, Neutral: neutral, Favoured: rho > neutral}, nil
}
