// Package replicator implements discrete-time replicator dynamics over a
// fixed set of strategy atoms with exact Markov payoffs — the method of the
// original Nowak-Sigmund Win-Stay Lose-Shift study that the paper's Fig. 2
// validates against.
//
// Where the agent simulation (internal/sim) tracks which SSet holds which
// strategy and samples finite games, this package tracks the *frequency* of
// each strategy and evolves the distribution deterministically. Payoffs come
// from the exact Markov analysis (analysis.Solver) at the strategies' memory
// depth, so there is no sampling noise at all. It is the engine's
// large-population limit: under the unconditional Fermi rule at weak
// selection, the engine's type fractions follow this equation as the number
// of SSets grows, which internal/sim's TestEngineTracksReplicator checks.
package replicator

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/strategy"
)

// Atom is one strategy with its population frequency.
type Atom struct {
	Strategy strategy.Strategy
	Freq     float64
}

// Config parameterises the dynamics.
type Config struct {
	// Payoff is the PD matrix (zero selects the paper's standard payoff).
	Payoff game.Payoff
	// ErrorRate is the per-move execution error folded into the exact
	// payoff computation.
	ErrorRate float64
	// Selection scales payoff differences in the replicator update:
	// growth factor = 1 + Selection*(pi_i - meanPi). Zero selects 1.
	Selection float64
}

// Validate normalises defaults and checks the configuration.
func (c *Config) Validate() error {
	if c.Payoff == (game.Payoff{}) {
		c.Payoff = game.StandardPayoff()
	}
	if err := c.Payoff.Validate(); err != nil {
		return err
	}
	// The negated comparisons reject NaN too, which satisfies neither bound.
	if !(c.ErrorRate >= 0 && c.ErrorRate <= 1) {
		return fmt.Errorf("replicator: error rate %v out of [0,1]", c.ErrorRate)
	}
	if c.Selection == 0 {
		c.Selection = 1
	}
	if !(c.Selection >= 0) {
		return fmt.Errorf("replicator: negative selection %v", c.Selection)
	}
	return nil
}

// Population is the evolving frequency distribution.
type Population struct {
	cfg   Config
	atoms []Atom
	// payoff[i][j] is the exact per-round payoff of atom i vs atom j.
	payoff [][]float64
}

// NewFromStrategies creates a population from explicit strategies of one
// memory depth at equal frequency (the payoff solve rejects a mixed set).
func NewFromStrategies(cfg Config, strategies []strategy.Strategy) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(strategies)
	if n < 2 {
		return nil, fmt.Errorf("replicator: need >= 2 strategies, got %d", n)
	}
	p := &Population{cfg: cfg, payoff: make([][]float64, n)}
	for i, s := range strategies {
		p.atoms = append(p.atoms, Atom{Strategy: s.Clone(), Freq: 1.0 / float64(n)})
		p.payoff[i] = make([]float64, n)
	}
	solver := analysis.NewSolver(strategies[0].Space())
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			pi, pj, err := solver.Payoff(cfg.Payoff, strategies[i], strategies[j], cfg.ErrorRate)
			if err != nil {
				return nil, err
			}
			p.payoff[i][j] = pi
			p.payoff[j][i] = pj
		}
	}
	return p, nil
}

// Atoms returns the current atoms (shared slice; do not modify).
func (p *Population) Atoms() []Atom { return p.atoms }

// Fitness returns atom i's frequency-weighted expected payoff.
func (p *Population) Fitness(i int) float64 {
	f := 0.0
	for j, a := range p.atoms {
		f += float64(a.Freq * p.payoff[i][j])
	}
	return f
}

// MeanFitness returns the population's mean payoff.
func (p *Population) MeanFitness() float64 {
	m := 0.0
	for i, a := range p.atoms {
		m += float64(a.Freq * p.Fitness(i))
	}
	return m
}

// Step advances one generation of the discrete replicator equation:
// freq_i <- freq_i * max(0, 1 + s*(pi_i - mean)) / Z. Without the clamp the
// new frequencies already sum to one, so Z >= 1 and the mass never
// collapses.
func (p *Population) Step() {
	// Fitness must be evaluated against the pre-update frequencies for
	// every atom, so snapshot it before touching any frequency.
	fit := make([]float64, len(p.atoms))
	for i := range p.atoms {
		fit[i] = p.Fitness(i)
	}
	mean := 0.0
	for i, a := range p.atoms {
		mean += float64(a.Freq * fit[i])
	}
	total := 0.0
	for i := range p.atoms {
		g := 1 + float64(p.cfg.Selection*(fit[i]-mean))
		if g < 0 {
			g = 0
		}
		p.atoms[i].Freq *= g
		total += p.atoms[i].Freq
	}
	for i := range p.atoms {
		p.atoms[i].Freq /= total
	}
}

// FractionNear returns the total frequency of atoms whose strategy rounds
// to the pure strategy ref.
func (p *Population) FractionNear(ref *strategy.Pure) float64 {
	total := 0.0
	for _, a := range p.atoms {
		switch v := a.Strategy.(type) {
		case *strategy.Pure:
			if v.Equal(ref) {
				total += a.Freq
			}
		case *strategy.Mixed:
			if v.NearestPure().Equal(ref) {
				total += a.Freq
			}
		}
	}
	return total
}
