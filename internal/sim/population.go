package sim

import (
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// Population is the global view of the strategy space the paper's Nature
// Agent maintains: the strategy assigned to each SSet. Every rank of either
// engine keeps an identical copy; payoffs live in each fitness source's
// payoffTable, not here.
type Population struct {
	space      strategy.Space
	strategies []strategy.Strategy
	// dirty marks SSets whose strategy changed since their games were last
	// replayed (incremental mode); changed lists the marked SSets in
	// ascending order, so a pass that replays only their games costs what
	// changed, not a scan of the population.
	dirty   []bool
	changed []int
	// played[i] is the generation whose refresh last listed SSet i as
	// changed, -1 while a change waits for the next: where cells are kept
	// across generations (keptAcrossGenerations), the generation i's cells
	// were played from. A resumed run takes it from the snapshot.
	played []int
	// The type table: typ[i] is the id of SSet i's behaviour (-1 when
	// strategy.CanonicalFingerprint does not know the implementation), so
	// two SSets behave alike exactly when their ids are equal. Live types
	// never outnumber the SSets, and an id is handed out afresh only when
	// no dead one is left to reclaim, so ids stay below Size(). A dead type
	// stays resolvable through ids until its id is reclaimed: a behaviour
	// that comes back before then gets its old id, and with it whatever a
	// payoffTable holds for it.
	typ   []int32
	types []popType
	ids   map[strategy.Fingerprint]int32
	free  []int32 // dead ids, the most recently dead last
}

// popType is one behaviour the population holds or held.
type popType struct {
	fp    strategy.Fingerprint
	count int    // SSets holding it now
	epoch uint32 // bumped each time the id is handed to a new fingerprint
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
		played:     make([]int, cfg.NumSSets),
		typ:        make([]int32, cfg.NumSSets),
		ids:        make(map[strategy.Fingerprint]int32),
	}
	// Types are interned in SSet order, so the ids are the same on every
	// rank and after a resume.
	for i := range p.strategies {
		if cfg.InitialStrategies != nil {
			p.strategies[i] = cfg.InitialStrategies[i].Clone()
		} else {
			p.strategies[i] = randomStrategy(cfg.Kind, sp, src.Derive(uint64(i), 0xA11)) // per-SSet stream
		}
		p.markDirty(i)
		p.typ[i] = p.intern(p.strategies[i])
	}
	// Every SSet is changed at a resumed run's first refresh, which refills
	// the table; the snapshot says which generation each one's cells are
	// played from.
	if cfg.prior.played != nil {
		copy(p.played, cfg.prior.played)
	}
	return p
}

// markDirty schedules SSet i's games for replay.
func (p *Population) markDirty(i int) {
	p.played[i] = -1
	if !p.dirty[i] {
		p.dirty[i] = true
		at, _ := slices.BinarySearch(p.changed, i)
		p.changed = slices.Insert(p.changed, at, i)
	}
}

// intern counts one more SSet holding s's behaviour and returns its id: the
// one it has, live or dead, else a reclaimed dead id under a new epoch, else
// a fresh one.
func (p *Population) intern(s strategy.Strategy) int32 {
	fp, ok := strategy.CanonicalFingerprint(s)
	if !ok {
		return -1
	}
	id, known := p.ids[fp]
	if known && p.types[id].count == 0 {
		p.free = slices.DeleteFunc(p.free, func(f int32) bool { return f == id })
	}
	if !known {
		t := popType{fp: fp}
		if n := len(p.free); n > 0 {
			id, p.free = p.free[n-1], p.free[:n-1]
			delete(p.ids, p.types[id].fp)
			t.epoch = p.types[id].epoch + 1
			p.types[id] = t
		} else {
			id = int32(len(p.types))
			p.types = append(p.types, t)
		}
		p.ids[fp] = id
	}
	p.types[id].count++
	return id
}

// release counts SSet i out of its type; a type nobody holds is dead.
func (p *Population) release(i int) {
	if id := p.typ[i]; id >= 0 {
		if p.types[id].count--; p.types[id].count == 0 {
			p.free = append(p.free, id)
		}
	}
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

// SetStrategy assigns a strategy to SSet i and marks its games dirty. The
// population keeps s itself: the caller must not write to it afterwards.
func (p *Population) SetStrategy(i int, s strategy.Strategy) {
	p.release(i)
	p.strategies[i], p.typ[i] = s, p.intern(s)
	p.markDirty(i)
}

// Adopt makes learner take teacher's strategy (the PC learning step) and,
// with it, the teacher's type. The two SSets share one value: a strategy is
// immutable once placed — SetStrategy and Adopt replace entries, nothing
// writes into one — and Snapshot deep-copies for whoever keeps one.
func (p *Population) Adopt(learner, teacher int) {
	id := p.typ[teacher]
	if id >= 0 {
		p.types[id].count++
	}
	p.release(learner)
	p.strategies[learner], p.typ[learner] = p.strategies[teacher], id
	p.markDirty(learner)
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
	return total / (float64(p.Size()) * float64(states))
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

// playedAt is the generation SSet i's cells are played from at generation
// gen's refresh: gen for a changed SSet.
func (p *Population) playedAt(i, gen int) int {
	if p.played[i] < 0 {
		return gen
	}
	return p.played[i]
}

// clearDirty resets the dirty marks once every owner has refreshed its pairs
// at generation gen.
func (p *Population) clearDirty(gen int) {
	for _, i := range p.changed {
		p.dirty[i] = false
		p.played[i] = p.playedAt(i, gen)
	}
	p.changed = p.changed[:0]
}
