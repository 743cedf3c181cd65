package sim

import "repro/internal/rng"

// The work decomposition follows both of the paper's parallelism levels:
// the S×(S-1) matches of a generation form a flat, i-major list of game
// pairs, block-distributed over the worker ranks. When there are fewer
// workers than SSets a worker owns several whole rows (SSets); when there
// are more, a single SSet's row spans several workers — the paper's
// "agents within each strategy group" level, where each agent handles s/a
// opponents ("each processor handles the agents of between 1/2 to 8 full
// SSets", §VI-B). The sequential engine is the one-owner case: a single
// block covering the whole list.
//
// Bit-exact parity between the engines is preserved by reassembling
// fitness in j-order: a row's payoffs are always summed left to right, so
// the Nature Agent concatenates the owners' contiguous segments in
// ascending column order and folds them in exactly that order.

// pairToIJ unflattens pair index i*(S-1)+jIdx into (i, j), with jIdx
// skipping the diagonal.
func pairToIJ(s, pair int) (i, j int) {
	i = pair / (s - 1)
	jIdx := pair % (s - 1)
	j = jIdx
	if jIdx >= i {
		j = jIdx + 1
	}
	return i, j
}

// pairIndex is pairToIJ's inverse: the flat index of pair (i, j), i != j.
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

// rowSegment is one worker's contiguous piece of an SSet's game row.
type rowSegment struct {
	worker int // worker index (0-based)
	lo, hi int // pair-index range within the global flat list
}

// rowSegments lists, in ascending column order, the workers owning pieces
// of SSet i's row of games.
func rowSegments(s, nWorkers, i int) []rowSegment {
	rowLo := i * (s - 1)
	rowHi := rowLo + (s - 1)
	var segs []rowSegment
	for w := 0; w < nWorkers; w++ {
		lo, hi := blockRange(s*(s-1), nWorkers, w)
		if hi <= rowLo || lo >= rowHi {
			continue
		}
		segs = append(segs, rowSegment{worker: w, lo: max(lo, rowLo), hi: min(hi, rowHi)})
	}
	return segs
}

// pairBlock is the one home of payoffs: the contiguous range [lo, hi) of
// the flat pair list with each pair's mean per-round payoff for its row
// SSet. The sequential engine owns [0, S(S-1)); each worker owns its
// blockRange. Column entries i<j and j<i are separate games, exactly as in
// the paper where each SSet's own agents model all its matches.
type pairBlock struct {
	s, lo, hi int
	payoffs   []float64 // payoffs[k-lo] belongs to pair k
}

func newPairBlock(s, lo, hi int) *pairBlock {
	return &pairBlock{s: s, lo: lo, hi: hi, payoffs: make([]float64, hi-lo)}
}

// refresh brings the block up to date from generation gen's random
// streams: it replays pair (i, j) iff all is set or either side's strategy
// changed since the last pass — with all, every owned pair (the paper's
// full-recompute timing mode, and the rebuild after an eviction re-shards
// the blocks). Match evaluation goes through kern. It returns the number of
// games the schedule touched — a cache hit still counts, since the game was
// scheduled and its payoff delivered; only the recomputation was skipped. A
// pairPayoff failure (an exact-mode analysis error) aborts the pass and
// propagates: it is a configuration fault, so the run fails cleanly instead
// of panicking or being mistaken for a rank failure.
func (b *pairBlock) refresh(cfg *Config, pop *Population, master *rng.Source, kern *payoffKernel, gen int, all bool) (uint64, error) {
	if !all {
		return b.refreshChanged(cfg, pop, master, kern, gen)
	}
	for k := b.lo; k < b.hi; {
		// One row's owned stretch per outer iteration, so the per-pair work
		// is an increment, not a division.
		i, j := pairToIJ(b.s, k)
		rowHi := min(b.hi, (i+1)*(b.s-1))
		row := kern.row(pop, i)
		for ; k < rowHi; k++ {
			v, ok := kern.hit(pop, row, j)
			if !ok {
				var err error
				if v, err = kern.pairPayoff(cfg, pop, master, gen, row, i, j); err != nil {
					return uint64(k - b.lo), err
				}
			}
			b.payoffs[k-b.lo] = v
			if j++; j == i {
				j++
			}
		}
	}
	return uint64(b.hi - b.lo), nil
}

// refreshChanged is refresh's incremental pass. It is driven by pop.changed,
// so it costs what changed — the owned cells of each changed SSet's row and
// column, O(|changed|·S) over all blocks together — and nothing when nothing
// did. Cells (i, j) and (j, i) are separate games, each counted, but where
// the block owns both it replays them back to back, which is what lets the
// kernel settle the second from the first's match (payoffKernel.last). So
// for each changed SSet d: the owned stretch of row d, each cell's mirror
// right behind it; then what is left of column d — the cells in unchanged
// rows (a changed row's stretch holds its own) whose mirror another block
// owns.
func (b *pairBlock) refreshChanged(cfg *Config, pop *Population, master *rng.Source, kern *payoffKernel, gen int) (uint64, error) {
	games, s1 := uint64(0), b.s-1
	replay := func(i, j, k int) error {
		row := kern.row(pop, i)
		v, ok := kern.hit(pop, row, j)
		if !ok {
			var err error
			if v, err = kern.pairPayoff(cfg, pop, master, gen, row, i, j); err != nil {
				return err
			}
		}
		b.payoffs[k-b.lo] = v
		games++
		return nil
	}
	for _, d := range pop.changed {
		for k := max(b.lo, d*s1); k < min(b.hi, (d+1)*s1); k++ {
			j := k - d*s1 // the column, which skips the diagonal
			if j >= d {
				j++
			}
			m := pairIndex(b.s, j, d)
			if b.owns(m) && pop.dirty[j] && j < d {
				continue // replayed behind (j, d) in row j's stretch
			}
			if err := replay(d, j, k); err != nil {
				return games, err
			}
			if b.owns(m) {
				if err := replay(j, d, m); err != nil {
					return games, err
				}
			}
		}
		for i := b.lo / s1; i <= (b.hi-1)/s1; i++ {
			if i == d || pop.dirty[i] || b.owns(pairIndex(b.s, d, i)) {
				continue
			}
			if k := pairIndex(b.s, i, d); b.owns(k) {
				if err := replay(i, d, k); err != nil {
					return games, err
				}
			}
		}
	}
	return games, nil
}

// owns reports whether pair index k lies in the block.
func (b *pairBlock) owns(k int) bool { return b.lo <= k && k < b.hi }

// scheduledGames is the closed form of refresh's game count over the whole
// pair list of s SSets, changed of them dirty: every pair with all, otherwise
// all pairs minus the clean×clean ones. The Nature rank of the parallel
// engine owns no pairs; it tallies the generation's schedule with this so
// snapshots carry an up-to-date GamesPlayed without an every-generation
// reduction, and cross-checks the tally against the workers' refresh counts
// at finalization.
func scheduledGames(s, changed int, all bool) uint64 {
	clean := s - changed
	if all {
		clean = 0
	}
	return uint64(s*(s-1) - clean*(clean-1))
}

// segment returns the owned, contiguous piece of SSet i's payoff row (empty
// when the block holds none of it). It aliases the block (see
// workerRank.generation for why that may cross to another rank).
func (b *pairBlock) segment(i int) []float64 {
	rowLo := i * (b.s - 1)
	segLo, segHi := max(b.lo, rowLo), min(b.hi, rowLo+b.s-1)
	if segLo >= segHi {
		return nil
	}
	return b.payoffs[segLo-b.lo : segHi-b.lo]
}

// fitness returns SSet i's relative fitness — its mean per-round payoff
// averaged over all S-1 opponents — from a block holding i's whole row. The
// block already stores mean per-round payoffs (game.Result.Mean0 divides by
// rounds; exact mode is per-round by construction), so the only
// normalisation applied here is 1/(S-1) — together they realise the paper's
// 1/((S-1)*rounds) scaling of raw match totals. The Fermi exponent
// therefore always works on the per-round payoff scale ([S..T], 1 =
// all-defect to 3 = full cooperation under the standard payoff),
// independent of population size and match length.
func (b *pairBlock) fitness(i int) float64 {
	return foldPayoffs(0, b.segment(i)) / float64(b.s-1)
}

// foldPayoffs adds payoffs onto total left to right — the one summation
// order every fitness and series value uses, whichever engine or rank count
// assembled the row.
func foldPayoffs(total float64, payoffs []float64) float64 {
	for _, v := range payoffs {
		total += v
	}
	return total
}

// fitnesses returns every SSet's fitness from a block covering the whole
// pair list.
func (b *pairBlock) fitnesses() []float64 {
	out := make([]float64, b.s)
	for i := range out {
		out[i] = b.fitness(i)
	}
	return out
}
