// Package replicator implements frequency-based evolutionary dynamics over
// a finite set of strategy atoms with exact Markov payoffs — the method of
// the original Nowak-Sigmund Win-Stay Lose-Shift study that the paper's
// Fig. 2 validates against.
//
// Where the agent simulation (internal/sim) tracks which SSet holds which
// strategy and samples finite games, this engine tracks the *frequency* of
// each distinct strategy and evolves the distribution deterministically by
// discrete-time replicator dynamics, with occasional uniform-random mutant
// strategies injected at low frequency. Payoffs come from the exact Markov
// analysis (analysis.Solver) at the strategies' memory depth, so there is
// no sampling noise at all: an independent cross-check of the agent-based
// results.
package replicator

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// Atom is one strategy with its population frequency.
type Atom struct {
	Strategy strategy.Strategy
	Freq     float64
}

// Config parameterises a replicator run.
type Config struct {
	// Payoff is the PD matrix (zero selects the paper's standard payoff).
	Payoff game.Payoff
	// ErrorRate is the per-move execution error folded into the exact
	// payoff computation.
	ErrorRate float64
	// Atoms is the number of strategy atoms kept in the population.
	Atoms int
	// Generations is the number of replicator steps.
	Generations int
	// MutantFreq is the frequency at which a new random mutant enters,
	// replacing the lowest-frequency atom (Nowak-Sigmund inject rare
	// mutants and let selection decide).
	MutantFreq float64
	// MutateEvery injects one mutant every this many generations
	// (0 disables mutation).
	MutateEvery int
	// ExtinctBelow removes atoms whose frequency falls below this
	// threshold, renormalising the rest (0 selects 1e-6).
	ExtinctBelow float64
	// Selection scales payoff differences in the replicator update:
	// growth factor = 1 + Selection*(pi_i - meanPi). Zero selects 1.
	Selection float64
	// Seed drives mutant generation.
	Seed uint64
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
	if c.Atoms < 2 {
		return fmt.Errorf("replicator: need >= 2 atoms, got %d", c.Atoms)
	}
	if c.Generations < 0 {
		return fmt.Errorf("replicator: negative generations")
	}
	if !(c.MutantFreq >= 0 && c.MutantFreq < 1) {
		return fmt.Errorf("replicator: mutant frequency %v out of [0,1)", c.MutantFreq)
	}
	if c.MutateEvery < 0 {
		return fmt.Errorf("replicator: negative MutateEvery")
	}
	if c.ExtinctBelow == 0 {
		c.ExtinctBelow = 1e-6
	}
	if !(c.ExtinctBelow >= 0 && c.ExtinctBelow <= 0.1) {
		return fmt.Errorf("replicator: extinction threshold %v out of (0,0.1]", c.ExtinctBelow)
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
	// payoff[i][j] caches the exact per-round payoff of atom i vs atom j.
	payoff [][]float64
	solver *analysis.Solver
	sp     strategy.Space
	src    *rng.Source
	gen    int
}

// New creates a population of cfg.Atoms uniform-random mixed memory-one
// strategies at equal frequency.
func New(cfg Config) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := newPopulation(cfg, strategy.NewSpace(1))
	for i := 0; i < cfg.Atoms; i++ {
		p.atoms = append(p.atoms, Atom{
			Strategy: strategy.RandomMixed(p.sp, p.src),
			Freq:     1.0 / float64(cfg.Atoms),
		})
	}
	if err := p.rebuildPayoffs(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewFromStrategies creates a population from explicit strategies of one
// memory depth at equal frequency (the payoff solve rejects a mixed set);
// mutants are drawn at the same depth.
func NewFromStrategies(cfg Config, strategies []strategy.Strategy) (*Population, error) {
	cfg.Atoms = len(strategies)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := newPopulation(cfg, strategies[0].Space())
	for _, s := range strategies {
		p.atoms = append(p.atoms, Atom{Strategy: s.Clone(), Freq: 1.0 / float64(len(strategies))})
	}
	if err := p.rebuildPayoffs(); err != nil {
		return nil, err
	}
	return p, nil
}

func newPopulation(cfg Config, sp strategy.Space) *Population {
	return &Population{cfg: cfg, sp: sp, solver: analysis.NewSolver(sp), src: rng.New(cfg.Seed)}
}

func (p *Population) rebuildPayoffs() error {
	n := len(p.atoms)
	p.payoff = make([][]float64, n)
	for i := range p.payoff {
		p.payoff[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			pi, pj, err := p.solver.Payoff(p.cfg.Payoff, p.atoms[i].Strategy, p.atoms[j].Strategy, p.cfg.ErrorRate)
			if err != nil {
				return err
			}
			p.payoff[i][j] = pi
			p.payoff[j][i] = pj
		}
	}
	return nil
}

// payoffRow recomputes row and column k after atom k changed.
func (p *Population) payoffRow(k int) error {
	for j := range p.atoms {
		pi, pj, err := p.solver.Payoff(p.cfg.Payoff, p.atoms[k].Strategy, p.atoms[j].Strategy, p.cfg.ErrorRate)
		if err != nil {
			return err
		}
		p.payoff[k][j] = pi
		p.payoff[j][k] = pj
	}
	return nil
}

// Atoms returns the current atoms (shared slice; do not modify).
func (p *Population) Atoms() []Atom { return p.atoms }

// Fitness returns atom i's frequency-weighted expected payoff.
func (p *Population) Fitness(i int) float64 {
	f := 0.0
	for j, a := range p.atoms {
		f += a.Freq * p.payoff[i][j]
	}
	return f
}

// MeanFitness returns the population's mean payoff.
func (p *Population) MeanFitness() float64 {
	m := 0.0
	for i, a := range p.atoms {
		m += a.Freq * p.Fitness(i)
	}
	return m
}

// Step advances one generation: replicator update, extinction pruning, and
// scheduled mutant injection.
func (p *Population) Step() error {
	// Discrete replicator: freq_i <- freq_i * (1 + s*(pi_i - mean)) / Z.
	// Fitness must be evaluated against the pre-update frequencies for
	// every atom, so snapshot it before touching any frequency.
	fit := make([]float64, len(p.atoms))
	for i := range p.atoms {
		fit[i] = p.Fitness(i)
	}
	mean := 0.0
	for i, a := range p.atoms {
		mean += a.Freq * fit[i]
	}
	total := 0.0
	for i := range p.atoms {
		g := 1 + p.cfg.Selection*(fit[i]-mean)
		if g < 0 {
			g = 0
		}
		p.atoms[i].Freq *= g
		total += p.atoms[i].Freq
	}
	if total <= 0 {
		return fmt.Errorf("replicator: population mass collapsed at generation %d", p.gen)
	}
	for i := range p.atoms {
		p.atoms[i].Freq /= total
	}
	// Extinction: prune tiny atoms (keep at least two).
	p.prune()
	// Mutation: replace the weakest atom with a fresh mutant.
	p.gen++
	if p.cfg.MutateEvery > 0 && p.gen%p.cfg.MutateEvery == 0 {
		if err := p.injectMutant(); err != nil {
			return err
		}
	}
	return nil
}

func (p *Population) prune() {
	for len(p.atoms) > 2 {
		weakest, wf := -1, math.Inf(1)
		for i, a := range p.atoms {
			if a.Freq < wf {
				weakest, wf = i, a.Freq
			}
		}
		if wf >= p.cfg.ExtinctBelow {
			return
		}
		p.removeAtom(weakest)
	}
}

func (p *Population) removeAtom(k int) {
	lost := p.atoms[k].Freq
	p.atoms = append(p.atoms[:k], p.atoms[k+1:]...)
	p.payoff = append(p.payoff[:k], p.payoff[k+1:]...)
	for i := range p.payoff {
		p.payoff[i] = append(p.payoff[i][:k], p.payoff[i][k+1:]...)
	}
	if lost > 0 && len(p.atoms) > 0 {
		scale := 1.0 / (1.0 - lost)
		for i := range p.atoms {
			p.atoms[i].Freq *= scale
		}
	}
}

func (p *Population) injectMutant() error {
	mutant := Atom{Strategy: strategy.RandomMixed(p.sp, p.src), Freq: p.cfg.MutantFreq}
	// Make room by scaling everyone down.
	scale := 1.0 - p.cfg.MutantFreq
	for i := range p.atoms {
		p.atoms[i].Freq *= scale
	}
	p.atoms = append(p.atoms, mutant)
	for i := range p.payoff {
		p.payoff[i] = append(p.payoff[i], 0)
	}
	p.payoff = append(p.payoff, make([]float64, len(p.atoms)))
	return p.payoffRow(len(p.atoms) - 1)
}

// Run advances the configured number of generations, invoking observe (if
// non-nil) after each step.
func (p *Population) Run(observe func(gen int, pop *Population)) error {
	for i := 0; i < p.cfg.Generations; i++ {
		if err := p.Step(); err != nil {
			return err
		}
		if observe != nil {
			observe(p.gen, p)
		}
	}
	return nil
}

// DominantAtom returns the highest-frequency atom.
func (p *Population) DominantAtom() Atom {
	best := 0
	for i, a := range p.atoms {
		if a.Freq > p.atoms[best].Freq {
			best = i
		}
	}
	return p.atoms[best]
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

// MeanCooperation returns the frequency-weighted mean cooperation
// probability over all states.
func (p *Population) MeanCooperation() float64 {
	total := 0.0
	for _, a := range p.atoms {
		states := a.Strategy.Space().NumStates()
		s := 0.0
		for st := 0; st < states; st++ {
			s += a.Strategy.CooperateProb(uint32(st))
		}
		total += a.Freq * s / float64(states)
	}
	return total
}
