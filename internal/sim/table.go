package sim

import (
	"math"

	"repro/internal/rng"
	"repro/internal/strategy"
)

// payoffTable is the one payoff table both engines fold fitness over. The
// sequential engine's source plays every cell it lists itself; each rank of
// the parallel engine holds its own copy and meets the others to fill it
// (rank.go). A run served by type (servedByType) keys the table by strategy
// type — it is the kernel's π, at most K×K cells for K live types. Any other
// run (noisy play, error-free mixed play, the reference kernel) keys it by
// SSet: each SSet is its own key, a change empties its row and column, and
// under FullRecompute every generation empties them all. Either way fitness
// is an SSet's row folded in column order over the refresh's key vector, so
// the value does not depend on who played a cell.
type payoffTable struct {
	kern *payoffKernel
	// tab is the table fitness folds over: kern.pi when byType, else S rows
	// of S cells keyed by SSet. A NaN cell is missing.
	tab    [][]float64
	byType bool
	// kept is keptAcrossGenerations: a cell is played from the generation
	// its SSets were last changed in.
	kept bool
	// keys holds each SSet's key as of the last refresh that listed cells,
	// which fitness, mean fitness and FinalFitness fold over; nil before the
	// first. rep[a] is the lowest SSet holding key a then.
	keys []int32
	rep  []int
	// every lists the SSets when the table is keyed by them: the keys a full
	// recompute empties.
	every []int
	// prior is the FinalFitness of the snapshot the run resumed from, if it
	// recorded one.
	prior []float64
	// cells lists the key pairs the last refresh found without a cell; mark,
	// vals, live and held are scratch.
	cells [][2]int32
	mark  []int
	vals  []float64
	live  []int32
	held  []float64
}

func newPayoffTable(cfg *Config) payoffTable {
	s := cfg.NumSSets
	t := payoffTable{kern: newPayoffKernel(cfg), byType: servedByType(cfg), kept: keptAcrossGenerations(cfg), rep: make([]int, s), mark: make([]int, s), prior: cfg.prior.final}
	t.tab = t.kern.pi
	if !t.byType {
		t.tab = make([][]float64, s)
		for i := range t.tab {
			t.tab[i] = make([]float64, s) // every SSet is changed at the first refresh, which empties its cells
			t.every = append(t.every, i)
		}
	}
	return t
}

// servedByType reports whether every match of cfg's run is served from π by
// type — exact payoffs, or error-free play among deterministic strategies
// only (the pure kind, and initial strategies the type table knows and that
// are deterministic), never the reference kernel — and with it whether the
// payoff table is keyed by type.
func servedByType(cfg *Config) bool {
	if cfg.referenceKernel || !cfg.ExactPayoffs && (cfg.Rules.ErrorRate != 0 || cfg.Kind != PureStrategies) {
		return false
	}
	for _, s := range cfg.InitialStrategies {
		if _, ok := strategy.CanonicalFingerprint(s); !ok || !cfg.ExactPayoffs && !strategy.IsDeterministic(s) {
			return false
		}
	}
	return true
}

// scheduledGames is the closed form of a generation's game count over the
// whole pair list of s SSets, changed of them dirty: every pair with all,
// otherwise all pairs minus the clean×clean ones. Whoever played the games,
// every source tallies the schedule with it, so the engines' counters agree
// and the ranks' agree at the end of the window's cross-check.
func scheduledGames(s, changed int, all bool) uint64 {
	clean := s - changed
	if all {
		clean = 0
	}
	return uint64(s*(s-1) - clean*(clean-1))
}

// listMissing is the first half of a refresh for pop, the same on every
// rank of either engine: it empties the cells of the changed SSets' keys —
// of every key under FullRecompute keyed by SSet — lists in cells the live
// key pairs the table then holds no cell for, and returns the generation's
// scheduled games. Only a changed SSet's key can lack a cell, so the list
// is, for each such key a ascending and each live key b ascending, (a, b)
// and right behind it its mirror (b, a) — but where b is a changed key ahead
// of a, whose pass listed both. A key pairs with itself only where two SSets
// hold it. Keeping mirrors adjacent is what lets the kernel settle a pure
// match's second cell from the first's (payoffKernel.last).
func (t *payoffTable) listMissing(cfg *Config, pop *Population) uint64 {
	all := cfg.FullRecompute && !t.byType // every pair replays from gen's streams
	scheduled := scheduledGames(pop.Size(), len(pop.changed), cfg.FullRecompute)
	t.cells = t.cells[:0]
	if len(pop.changed) == 0 && !all {
		return scheduled
	}
	tab := t.tab
	t.keys = append(t.keys[:0], pop.typ...)
	changed, keys := pop.changed, len(pop.types)
	if !t.byType {
		for i := range t.keys {
			t.keys[i] = int32(i)
		}
		keys = len(tab)
		if all {
			changed = t.every
		}
	}
	clear(t.mark)
	for _, d := range changed {
		t.mark[t.keys[d]] = 1
		if t.byType {
			t.kern.row(pop, d) // stamps the type's epoch, dropping a previous owner's cells, and allocates its row
			continue
		}
		for j := range tab {
			tab[d][j], tab[j][d] = math.NaN(), math.NaN()
		}
	}
	for a := range keys {
		if t.mark[a] == 0 {
			continue
		}
		for b := range keys {
			held := 1 // keyed by SSet: the one SSet that is the key
			if t.byType {
				held = pop.types[b].count
			}
			if held == 0 || a == b && held < 2 || b < a && t.mark[b] != 0 {
				continue
			}
			if v := tab[a][b]; v != v {
				t.cells = append(t.cells, [2]int32{int32(a), int32(b)})
			}
			if v := tab[b][a]; a != b && v != v {
				t.cells = append(t.cells, [2]int32{int32(b), int32(a)})
			}
		}
	}
	for i := len(t.keys) - 1; i >= 0; i-- {
		t.rep[t.keys[i]] = i
	}
	return scheduled
}

// keptAcrossGenerations reports whether cfg's run keys its table by SSet and
// keeps a cell until one of its SSets changes: a cell of noisy or mixed play
// then holds the match of the generation it was played in, which a snapshot
// of the run records (Population.played) so a resumed run plays it again.
func keptAcrossGenerations(cfg *Config) bool { return !servedByType(cfg) && !cfg.FullRecompute }

// playCells evaluates cells between the keys' lowest holders — by type a
// memoizable match, so which holders play does not matter — from generation
// gen's streams; a cell kept across generations from the streams of the
// later of the generations its SSets were played from, which is gen except
// at a resumed run's first refresh. The values are scratch, valid until the
// next call.
func (t *payoffTable) playCells(cfg *Config, pop *Population, master *rng.Source, gen int, cells [][2]int32) ([]float64, error) {
	t.vals = t.vals[:0]
	for _, ab := range cells {
		i, j, g := t.rep[ab[0]], t.rep[ab[1]], gen
		if t.kept {
			g = max(pop.playedAt(i, gen), pop.playedAt(j, gen))
		}
		v, err := t.kern.payoff(cfg, pop, master, g, i, j)
		if err != nil {
			return nil, err
		}
		t.vals = append(t.vals, v)
	}
	return t.vals, nil
}

// install writes vals, in cells' order, into the table.
func (t *payoffTable) install(cells [][2]int32, vals []float64) {
	for n, ab := range cells {
		t.tab[ab[0]][ab[1]] = vals[n]
	}
}

// fitness returns SSet i's relative fitness over the refresh's key vector —
// its mean per-round payoff averaged over all S-1 opponents, its row folded
// in column order. The cells already hold mean per-round payoffs
// (game.Result.Mean0 divides by rounds; exact mode is per-round by
// construction), so the only normalisation applied here is 1/(S-1) —
// together they realise the paper's 1/((S-1)*rounds) scaling of raw match
// totals. The Fermi exponent therefore always works on the per-round payoff
// scale ([S..T], 1 = all-defect to 3 = full cooperation under the standard
// payoff), independent of population size and match length.
func (t *payoffTable) fitness(i int) float64 {
	row, total := t.tab[t.keys[i]], 0.0
	for j, b := range t.keys {
		if j != i {
			total += row[b]
		}
	}
	return total / float64(len(t.keys)-1)
}

func (t *payoffTable) fitnesses(teacher, learner int) (float64, float64, error) {
	return t.fitness(teacher), t.fitness(learner), nil
}

// meanFitness is the population's mean relative fitness, Σ_a n_a Σ_b
// (n_b − δ_ab)·tab(a,b) over the refresh's key counts, live keys in the
// order of their lowest holder and each row's own pairing last — O(S + K²)
// for K live keys. Every engine and rank count sums it in this one order.
func (t *payoffTable) meanFitness() (float64, error) {
	clear(t.mark)
	t.live = t.live[:0]
	for _, a := range t.keys {
		if t.mark[a]++; t.mark[a] == 1 {
			t.live = append(t.live, a)
		}
	}
	t.held = t.held[:0]
	for _, a := range t.live {
		t.held = append(t.held, float64(t.mark[a]))
	}
	total := 0.0
	for x, a := range t.live {
		row, sum := t.tab[a], 0.0
		for y, b := range t.live {
			if y != x {
				sum += t.held[y] * row[b]
			}
		}
		if n := t.held[x]; n > 1 { // no SSet plays itself
			sum += (n - 1) * row[a]
		}
		total += t.held[x] * sum
	}
	s := len(t.keys)
	return total / float64(s*(s-1)), nil
}

// finalFitness is every SSet's fitness over the last refresh's key vector.
// Before a first refresh it is what the snapshot the run resumed from
// recorded, zeros without one.
func (t *payoffTable) finalFitness() []float64 {
	out := make([]float64, len(t.rep))
	if t.keys == nil {
		copy(out, t.prior)
		return out
	}
	for i := range t.keys {
		out[i] = t.fitness(i)
	}
	return out
}
