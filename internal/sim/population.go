package sim

import (
	"math"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// Population is the global view of the strategy space the paper's Nature
// Agent maintains: the strategy assigned to each SSet. Every rank of either
// engine keeps an identical copy; payoffs live with whoever plays the games
// (pairBlock), not here.
type Population struct {
	space      strategy.Space
	strategies []strategy.Strategy
	// dirty marks SSets whose strategy changed since their games were last
	// replayed (incremental mode).
	dirty []bool
}

// NewPopulation initialises a population of cfg.NumSSets strategies: deep
// copies of cfg.InitialStrategies when resuming, otherwise random draws
// from src (the paper's random initial assignment).
func NewPopulation(cfg Config, src *rng.Source) *Population {
	sp := strategy.NewSpace(cfg.Memory)
	p := &Population{
		space:      sp,
		strategies: make([]strategy.Strategy, cfg.NumSSets),
		dirty:      make([]bool, cfg.NumSSets),
	}
	for i := range p.strategies {
		if cfg.InitialStrategies != nil {
			p.strategies[i] = cfg.InitialStrategies[i].Clone()
		} else {
			p.strategies[i] = randomStrategy(cfg.Kind, sp, src.Derive(uint64(i), 0xA11)) // per-SSet stream
		}
		p.dirty[i] = true
	}
	return p
}

func randomStrategy(kind StrategyKind, sp strategy.Space, src *rng.Source) strategy.Strategy {
	if kind == MixedStrategies {
		return strategy.RandomMixed(sp, src)
	}
	return strategy.RandomPure(sp, src)
}

// Size returns the number of SSets.
func (p *Population) Size() int { return len(p.strategies) }

// Space returns the strategy space.
func (p *Population) Space() strategy.Space { return p.space }

// SetStrategy assigns a strategy to SSet i and marks its games dirty.
func (p *Population) SetStrategy(i int, s strategy.Strategy) {
	p.strategies[i] = s
	p.dirty[i] = true
}

// Adopt makes learner copy teacher's strategy (the PC learning step).
func (p *Population) Adopt(learner, teacher int) {
	p.strategies[learner] = p.strategies[teacher].Clone()
	p.dirty[learner] = true
}

// Abundance returns the strategy-abundance tally of the current population.
func (p *Population) Abundance() *stats.Abundance { return abundance(p.strategies) }

func abundance(strategies []strategy.Strategy) *stats.Abundance {
	a := stats.NewAbundance()
	for _, s := range strategies {
		a.Add(s.Fingerprint())
	}
	return a
}

// FractionNear returns the share of SSets whose strategy rounds to the pure
// strategy ref — the clustering view used for mixed-strategy populations,
// where exact equality never occurs.
func (p *Population) FractionNear(ref *strategy.Pure) float64 { return fractionNear(p.strategies, ref) }

func fractionNear(strategies []strategy.Strategy, ref *strategy.Pure) float64 {
	if len(strategies) == 0 {
		return 0
	}
	n := 0
	for _, s := range strategies {
		switch v := s.(type) {
		case *strategy.Pure:
			if v.Equal(ref) {
				n++
			}
		case *strategy.Mixed:
			if v.NearestPure().Equal(ref) {
				n++
			}
		}
	}
	return float64(n) / float64(len(strategies))
}

// MeanCooperationProb returns the average cooperation probability across
// all SSets and states — a coarse population cooperativeness measure.
func (p *Population) MeanCooperationProb() float64 {
	total := 0.0
	states := p.space.NumStates()
	for _, s := range p.strategies {
		for st := 0; st < states; st++ {
			total += s.CooperateProb(uint32(st))
		}
	}
	return total / float64(p.Size()*states)
}

// Snapshot returns deep copies of all strategies (for observers that retain
// population state beyond the callback).
func (p *Population) Snapshot() []strategy.Strategy {
	out := make([]strategy.Strategy, len(p.strategies))
	for i, s := range p.strategies {
		out[i] = s.Clone()
	}
	return out
}

// Fermi evaluates Equation 1 of the paper: the probability that the learner
// adopts the teacher's strategy given payoffs piT, piL and selection
// intensity beta.
func Fermi(beta, piT, piL float64) float64 {
	return 1.0 / (1.0 + math.Exp(-beta*(piT-piL)))
}

// clearDirty resets the dirty marks once every owner has refreshed its pairs.
func (p *Population) clearDirty() {
	for i := range p.dirty {
		p.dirty[i] = false
	}
}
