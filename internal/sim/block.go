package sim

import "repro/internal/rng"

// The sequential engine keeps a generation's S×(S-1) matches as a flat,
// i-major list of game pairs (pairBlock). The parallel engine splits the
// pairs a generation misses over its workers with blockRange (rank.go): when
// there are fewer workers than SSets a worker plays several whole rows
// (SSets); when there are more, a single SSet's row spans several workers —
// the paper's "agents within each strategy group" level, where each agent
// handles s/a opponents ("each processor handles the agents of between 1/2
// to 8 full SSets", §VI-B).
//
// Bit-exact parity between the engines is preserved by folding fitness in
// j-order: a row's payoffs are always summed left to right, whichever engine
// or rank count played them.

// pairIndex is the flat index of pair (i, j), i != j: i*(S-1) plus j's
// column, which skips the diagonal.
func pairIndex(s, i, j int) int {
	if j > i {
		j--
	}
	return i*(s-1) + j
}

// blockRange returns worker w's contiguous range of the n work items
// (block-distributed, remainders to the leading workers).
func blockRange(n, nWorkers, w int) (lo, hi int) {
	base := n / nWorkers
	rem := n % nWorkers
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// pairBlock is the sequential engine's home of payoffs: the flat pair list
// with each pair's mean per-round payoff for its row SSet. Column entries
// i<j and j<i are separate games, exactly as in the paper where each SSet's
// own agents model all its matches.
type pairBlock struct {
	s       int
	payoffs []float64 // payoffs[pairIndex(s, i, j)] belongs to pair (i, j)
}

func newPairBlock(s int) *pairBlock {
	return &pairBlock{s: s, payoffs: make([]float64, s*(s-1))}
}

// refresh brings the block up to date from generation gen's random
// streams: it replays pair (i, j) iff all is set or either side's strategy
// changed since the last pass — with all, every pair (the paper's
// full-recompute timing mode). Match evaluation goes through kern. It
// returns the number of games the schedule touched — a cache hit still
// counts, since the game was scheduled and its payoff delivered; only the
// recomputation was skipped. A pairPayoff failure (an exact-mode analysis
// error) aborts the pass and propagates: it is a configuration fault, so the
// run fails cleanly instead of panicking.
func (b *pairBlock) refresh(cfg *Config, pop *Population, master *rng.Source, kern *payoffKernel, gen int, all bool) (uint64, error) {
	if !all {
		return b.refreshChanged(cfg, pop, master, kern, gen)
	}
	k := 0
	for i := range b.s {
		// One row per outer iteration, so its table row is looked up once.
		row := kern.row(pop, i)
		for j := range b.s {
			if j == i {
				continue
			}
			v, ok := kern.hit(pop, row, j)
			if !ok {
				var err error
				if v, err = kern.pairPayoff(cfg, pop, master, gen, row, i, j); err != nil {
					return uint64(k), err
				}
			}
			b.payoffs[k] = v
			k++
		}
	}
	return uint64(k), nil
}

// refreshChanged is refresh's incremental pass. It is driven by pop.changed,
// so it costs what changed — each changed SSet's row and column,
// O(|changed|·S) — and nothing when nothing did. Cells (i, j) and (j, i) are
// separate games, each counted, but they are replayed back to back, which is
// what lets the kernel settle the second from the first's match
// (payoffKernel.last): for each changed SSet d, each cell of row d with its
// mirror right behind it, but where the mirror's row is a changed SSet's
// ahead of d's, whose pass replayed both.
func (b *pairBlock) refreshChanged(cfg *Config, pop *Population, master *rng.Source, kern *payoffKernel, gen int) (uint64, error) {
	games := uint64(0)
	replay := func(i, j int) error {
		v, err := kern.payoff(cfg, pop, master, gen, i, j)
		if err == nil {
			b.payoffs[pairIndex(b.s, i, j)] = v
			games++
		}
		return err
	}
	for _, d := range pop.changed {
		for j := range b.s {
			if j == d || pop.dirty[j] && j < d {
				continue
			}
			if err := replay(d, j); err != nil {
				return games, err
			}
			if err := replay(j, d); err != nil {
				return games, err
			}
		}
	}
	return games, nil
}

// scheduledGames is the closed form of refresh's game count over the whole
// pair list of s SSets, changed of them dirty: every pair with all, otherwise
// all pairs minus the clean×clean ones. Every rank of the parallel engine
// tallies the generation's schedule with it, whoever played the games, so
// its counters agree with the sequential engine's and with each other's at
// the end of the window's cross-check.
func scheduledGames(s, changed int, all bool) uint64 {
	clean := s - changed
	if all {
		clean = 0
	}
	return uint64(s*(s-1) - clean*(clean-1))
}

// fitness returns SSet i's relative fitness — its mean per-round payoff
// averaged over all S-1 opponents, its row folded in column order. The
// block already stores mean per-round payoffs (game.Result.Mean0 divides by
// rounds; exact mode is per-round by construction), so the only
// normalisation applied here is 1/(S-1) — together they realise the paper's
// 1/((S-1)*rounds) scaling of raw match totals. The Fermi exponent
// therefore always works on the per-round payoff scale ([S..T], 1 =
// all-defect to 3 = full cooperation under the standard payoff),
// independent of population size and match length.
func (b *pairBlock) fitness(i int) float64 {
	total := 0.0
	for _, v := range b.payoffs[i*(b.s-1) : (i+1)*(b.s-1)] {
		total += v
	}
	return total / float64(b.s-1)
}

// fitnesses returns every SSet's fitness.
func (b *pairBlock) fitnesses() []float64 {
	out := make([]float64, b.s)
	for i := range out {
		out[i] = b.fitness(i)
	}
	return out
}
