// Package spatial implements lattice-structured evolutionary games — the
// spatialised Prisoner's Dilemma the paper cites as the source of its
// learning dynamics ([30]) and a classic extension direction for
// agent-based game frameworks (Nowak & May's spatial chaos).
//
// Two models are provided:
//
//   - Binary: Nowak & May's deterministic one-shot spatial PD. Each cell is
//     a cooperator or defector, earns the summed payoff of games against
//     its Moore neighbourhood (and itself), then every cell synchronously
//     adopts the strategy of its best-scoring neighbour. With the canonical
//     payoff (R=1, P=S=0, T=b) the dynamics pass from cooperator-dominated
//     through dynamic coexistence ("spatial chaos", 1.8 < b < 2) to
//     defector-dominated as b grows; in the chaos window the cooperator
//     fraction converges to the famous ~0.318 asymptote on large lattices,
//     and a lone defector seeds the exact-symmetric kaleidoscope patterns
//     (both reproduced by the tests).
//
//   - IPD: each cell holds a full memory-n strategy and plays the Iterated
//     Prisoner's Dilemma against its neighbours each generation, then
//     imitates its best-scoring neighbour — the spatial counterpart of the
//     paper's well-mixed SSet dynamics.
package spatial

import (
	"fmt"
	"strings"

	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// Binary is the Nowak-May one-shot spatial game.
type Binary struct {
	w, h  int
	b     float64 // temptation payoff; R=1, S=P=0
	cells []bool  // true = cooperator
	next  []bool
	score []float64
	gen   int
}

// NewBinary creates a w×h toroidal lattice with each cell independently a
// cooperator with probability coopFrac, drawn from seed.
func NewBinary(w, h int, b, coopFrac float64, seed uint64) (*Binary, error) {
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("spatial: lattice %dx%d too small (need >= 3x3)", w, h)
	}
	if b <= 1 {
		return nil, fmt.Errorf("spatial: temptation b=%v must exceed R=1", b)
	}
	if coopFrac < 0 || coopFrac > 1 {
		return nil, fmt.Errorf("spatial: cooperator fraction %v out of [0,1]", coopFrac)
	}
	l := &Binary{
		w: w, h: h, b: b,
		cells: make([]bool, w*h),
		next:  make([]bool, w*h),
		score: make([]float64, w*h),
	}
	src := rng.New(seed)
	for i := range l.cells {
		l.cells[i] = src.Bernoulli(coopFrac)
	}
	return l, nil
}

// SetCell overrides one cell (used to seed single-defector experiments).
func (l *Binary) SetCell(x, y int, cooperator bool) {
	l.cells[l.idx(x, y)] = cooperator
}

// Generation returns the number of completed steps.
func (l *Binary) Generation() int { return l.gen }

func (l *Binary) idx(x, y int) int {
	x = ((x % l.w) + l.w) % l.w
	y = ((y % l.h) + l.h) % l.h
	return y*l.w + x
}

// neighbourhood lists the Moore neighbourhood offsets plus self.
var neighbourhood = [9][2]int{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {0, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

// Step advances one synchronous generation: score every cell against its
// neighbourhood, then every cell copies its best-scoring neighbour
// (including itself; deterministic tie-break prefers keeping the current
// strategy, then scan order — Nowak & May's convention up to tie-breaks).
func (l *Binary) Step() {
	// Scoring: one-shot PD against the 8 neighbours and self; with R=1,
	// S=P=0, T=b, a cell's score is (#cooperating partners) for a
	// cooperator and b*(#cooperating partners) for a defector.
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			i := y*l.w + x
			coopPartners := 0
			for _, d := range neighbourhood {
				if l.cells[l.idx(x+d[0], y+d[1])] {
					coopPartners++
				}
			}
			if l.cells[i] {
				l.score[i] = float64(coopPartners)
			} else {
				l.score[i] = l.b * float64(coopPartners)
			}
		}
	}
	// Imitation: adopt the strategy of the best-scoring neighbourhood
	// member. The tie-break must not depend on scan order or the
	// kaleidoscope patterns lose their exact symmetry, so compare the best
	// cooperator score against the best defector score and let cooperation
	// win exact ties — a position-independent rule.
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			i := y*l.w + x
			bestC, bestD := -1.0, -1.0
			for _, d := range neighbourhood {
				j := l.idx(x+d[0], y+d[1])
				if l.cells[j] {
					if l.score[j] > bestC {
						bestC = l.score[j]
					}
				} else if l.score[j] > bestD {
					bestD = l.score[j]
				}
			}
			l.next[i] = bestC >= bestD
		}
	}
	l.cells, l.next = l.next, l.cells
	l.gen++
}

// Run advances n generations.
func (l *Binary) Run(n int) {
	for i := 0; i < n; i++ {
		l.Step()
	}
}

// CoopFraction returns the cooperating share of cells.
func (l *Binary) CoopFraction() float64 {
	n := 0
	for _, c := range l.cells {
		if c {
			n++
		}
	}
	return float64(n) / float64(len(l.cells))
}

// Ascii renders the lattice ('.' cooperator, '#' defector).
func (l *Binary) Ascii() string {
	var sb strings.Builder
	sb.Grow((l.w + 1) * l.h)
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			if l.cells[y*l.w+x] {
				sb.WriteByte('.')
			} else {
				sb.WriteByte('#')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// IPD is the lattice of full IPD strategies with imitate-best dynamics.
type IPD struct {
	w, h   int
	rules  game.Rules
	cells  []strategy.Strategy
	next   []strategy.Strategy
	score  []float64
	src    *rng.Source
	space  strategy.Space
	gen    int
	mu     float64 // per-cell per-generation mutation probability
	mixed  bool
	master *rng.Source
}

// IPDConfig parameterises the lattice IPD model.
type IPDConfig struct {
	// W, H are the toroidal lattice dimensions (>= 3 each).
	W, H int
	// Memory is the strategy depth.
	Memory int
	// Rules are the per-match IPD parameters (zero = paper defaults).
	Rules game.Rules
	// Mu is the per-cell per-generation probability of a random mutation.
	Mu float64
	// Mixed selects probabilistic strategies.
	Mixed bool
	// Seed drives initialisation, game sampling, and mutation.
	Seed uint64
}

// NewIPD builds a lattice of random strategies.
func NewIPD(cfg IPDConfig) (*IPD, error) {
	if cfg.W < 3 || cfg.H < 3 {
		return nil, fmt.Errorf("spatial: lattice %dx%d too small", cfg.W, cfg.H)
	}
	if cfg.Memory < 1 || cfg.Memory > strategy.MaxMemory {
		return nil, fmt.Errorf("spatial: memory %d out of range", cfg.Memory)
	}
	if cfg.Rules == (game.Rules{}) {
		cfg.Rules = game.DefaultRules()
	}
	if err := cfg.Rules.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mu < 0 || cfg.Mu > 1 {
		return nil, fmt.Errorf("spatial: mutation rate %v out of [0,1]", cfg.Mu)
	}
	sp := strategy.NewSpace(cfg.Memory)
	l := &IPD{
		w: cfg.W, h: cfg.H,
		rules:  cfg.Rules,
		cells:  make([]strategy.Strategy, cfg.W*cfg.H),
		next:   make([]strategy.Strategy, cfg.W*cfg.H),
		score:  make([]float64, cfg.W*cfg.H),
		space:  sp,
		mu:     cfg.Mu,
		mixed:  cfg.Mixed,
		master: rng.New(cfg.Seed),
	}
	l.src = l.master.Derive(0x5A7)
	for i := range l.cells {
		if cfg.Mixed {
			l.cells[i] = strategy.RandomMixed(sp, l.src)
		} else {
			l.cells[i] = strategy.RandomPure(sp, l.src)
		}
	}
	return l, nil
}

func (l *IPD) idx(x, y int) int {
	x = ((x % l.w) + l.w) % l.w
	y = ((y % l.h) + l.h) % l.h
	return y*l.w + x
}

// SetCell overrides one cell's strategy.
func (l *IPD) SetCell(x, y int, s strategy.Strategy) { l.cells[l.idx(x, y)] = s.Clone() }

// Step advances one generation: each cell plays its 8 neighbours, scores
// the mean per-round payoff, then synchronously imitates its best
// neighbour; finally mutation may replace cells with fresh random
// strategies.
func (l *IPD) Step() {
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			i := y*l.w + x
			total := 0.0
			games := 0
			for _, d := range neighbourhood {
				if d[0] == 0 && d[1] == 0 {
					continue
				}
				j := l.idx(x+d[0], y+d[1])
				src := l.master.Derive(0x9A3, uint64(l.gen), uint64(i), uint64(j))
				res := game.Play(l.rules, l.cells[i], l.cells[j], src)
				total += res.Mean0()
				games++
			}
			l.score[i] = total / float64(games)
		}
	}
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			i := y*l.w + x
			best := l.score[i]
			bestStrat := l.cells[i]
			for _, d := range neighbourhood {
				j := l.idx(x+d[0], y+d[1])
				if l.score[j] > best {
					best = l.score[j]
					bestStrat = l.cells[j]
				}
			}
			l.next[i] = bestStrat
		}
	}
	// Materialise copies only where the strategy actually changes;
	// imitation shares immutable strategy values otherwise.
	for i := range l.next {
		if l.next[i] != l.cells[i] {
			l.next[i] = l.next[i].Clone()
		}
	}
	l.cells, l.next = l.next, l.cells
	if l.mu > 0 {
		mutSrc := l.master.Derive(0xB07, uint64(l.gen))
		for i := range l.cells {
			if mutSrc.Bernoulli(l.mu) {
				if l.mixed {
					l.cells[i] = strategy.RandomMixed(l.space, mutSrc)
				} else {
					l.cells[i] = strategy.RandomPure(l.space, mutSrc)
				}
			}
		}
	}
	l.gen++
}

// Run advances n generations.
func (l *IPD) Run(n int) {
	for i := 0; i < n; i++ {
		l.Step()
	}
}

// FractionNear returns the share of cells whose strategy rounds to ref.
func (l *IPD) FractionNear(ref *strategy.Pure) float64 {
	n := 0
	for _, s := range l.cells {
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
	return float64(n) / float64(len(l.cells))
}
