package sim

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/strategy"
)

// This file is the parallel engine's protocol. Every rank, Nature included,
// keeps the same payoff table and runs the one Nature Agent generation
// (nature.generation) over it: fitness is an SSet's row of the table folded
// in column order, and the adoption is resolved from (Seed, gen, piT, piL),
// so neither a fitness value nor an adoption crosses the wire. A run served
// by type (servedByType) keys the table by strategy type — it is the
// kernel's π. Any other run (noisy play, error-free mixed play, the
// reference kernel) keys it by SSet: each SSet is its own key, a change
// empties its row and column, and under FullRecompute every generation
// empties them all, so the missing cells are the pairs the sequential
// engine's pairBlock replays. The ranks meet only where the table lacks a
// cell: a refresh that finds cells missing lists them in an order every rank
// derives alike, splits the list over the workers (blockRange; Nature plays
// none), Gathers the played cells at Nature and Bcasts Nature's verdict —
// every new cell — back. A generation without a missing cell sends nothing.
// Where something depends on how far ranks drift apart (boundedDrift) each
// sampled generation is a meeting too, and the window's end always is one:
// its Gather carries every worker's report for Nature's cross-check.

// servedByType reports whether every match of cfg's run is served from π by
// type — exact payoffs, or error-free play among deterministic strategies
// only (the pure kind, and initial strategies the type table knows and that
// are deterministic), never the reference kernel — and with it whether the
// parallel engine keys its table by type.
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

// boundedDrift reports whether something depends on a run's ranks staying
// within SampleStride generations of each other — the stop latency
// Config.Control documents, RecvTimeout's stall detection, live eviction —
// which makes every sampled generation a meeting.
func boundedDrift(cfg *Config) bool { return cfg.Control != nil || cfg.RecvTimeout > 0 || cfg.Evict }

// parRank is one rank of the parallel engine, Nature (dense rank 0) or a
// worker, and its own fitness source. Only Nature records: Control, the
// Observer, checkpoints and the sampled series stay its own, and a worker's
// generation is quiet.
type parRank struct {
	*nature
	c    *mpi.Comm
	kern *payoffKernel
	// tab is the table fitness folds over: kern.pi when byType, else S rows
	// of S cells keyed by SSet. A NaN cell is missing.
	tab    [][]float64
	byType bool
	// keys holds each SSet's key as of the last refresh that listed cells,
	// which fitness, mean fitness and FinalFitness fold over; nil before the
	// first. rep[a] is the lowest SSet holding key a then.
	keys []int32
	rep  []int
	// every lists the SSets when the table is keyed by them: the keys a full
	// recompute empties.
	every []int
	// cells lists the key pairs the last refresh found without a cell; mark,
	// vals and live are scratch.
	cells [][2]int32
	mark  []int
	vals  []float64
	live  []int32
	// base is the Counters at the last (re)synchronisation, which the end of
	// the window cross-checks from.
	base Counters
	// stopErr is a Control stop's error once Nature has saved its snapshot:
	// Nature then runs on quietly to the workers' next meeting, tells them
	// there, and returns it.
	stopErr error
}

func newParRank(cfg *Config, c *mpi.Comm) *parRank {
	s := cfg.NumSSets
	r := &parRank{nature: newNature(cfg), c: c, kern: newPayoffKernel(cfg), byType: servedByType(cfg),
		rep: make([]int, s), mark: make([]int, s)}
	r.tab = r.kern.pi
	if !r.byType {
		r.tab = make([][]float64, s)
		for i := range r.tab {
			r.tab[i] = make([]float64, s) // every SSet is changed at the first refresh, which empties its cells
			r.every = append(r.every, i)
		}
	}
	r.src, r.quiet, r.base = r, c.Rank() != 0, r.res.Counters
	return r
}

// step runs the next generation, or the end of the window. The eviction
// rollback point is the top of the generation; a failure at the end of the
// window replays the last one, whose refresh is the key vector FinalFitness
// folds over, so only a window without a generation resumes at its end.
func (r *parRank) step() (bool, error) {
	if r.cfg.Evict && r.c.Rank() == 0 && (r.gen < r.end || r.snap.strategies == nil) {
		r.takeSnap()
	}
	if r.gen >= r.end {
		return true, r.finalize()
	}
	err := r.generation()
	if r.quiet && r.c.Rank() == 0 && r.stopErr == nil {
		r.stopErr, err = err, nil // the stop's error: its snapshot is saved
	}
	return false, err
}

// resync re-establishes the shared state on a shrunk communicator: Nature
// rolls back to its snapshot and broadcasts it, a worker adopts it, and
// every survivor rebuilds its population from those strategies, so type ids
// agree again, and forgets its table: every SSet of the new population is
// changed, so the next refresh empties and refills each cell by SSet, and
// with every stamp cleared each type's row and column are dropped on its
// first touch (payoffKernel.met).
func (r *parRank) resync(nc *mpi.Comm) error {
	var out any
	if nc.Rank() == 0 {
		r.rollback()
		out = resume{Gen: r.gen, Strategies: r.snap.strategies}.encode()
	}
	p, err := nc.Bcast(0, out)
	if err != nil {
		return err
	}
	rs, err := decodeResume(r.cfg, p)
	if err != nil {
		return err
	}
	cfg := *r.cfg
	cfg.InitialStrategies = rs.Strategies
	r.pop, r.keys = NewPopulation(cfg, r.master), nil
	clear(r.kern.seen)
	// A worker's counters may be ahead of or behind Nature's: the cross-check
	// counts from here.
	r.c, r.gen, r.base = nc, rs.Gen, r.res.Counters
	return nil
}

// refresh brings the table up to date for generation gen: the scheduled
// games are the closed form every rank derives alike, and a meeting fills
// whatever cells the changed SSets' keys lack. Nature books every scheduled
// game no worker played as a hit.
func (r *parRank) refresh(gen int) (uint64, error) {
	pop := r.pop
	all := r.cfg.FullRecompute && !r.byType // every pair replays from gen's streams
	scheduled := scheduledGames(pop.Size(), len(pop.changed), r.cfg.FullRecompute)
	r.cells = r.cells[:0]
	if len(pop.changed) > 0 || all {
		r.listMissing(all)
	}
	if len(r.cells) > 0 || gen%r.cfg.SampleStride == 0 && boundedDrift(r.cfg) {
		part, err := r.play(gen)
		if err == nil {
			_, err = r.meet(gen, part)
		}
		if err != nil {
			return scheduled, err
		}
	}
	if r.c.Rank() == 0 {
		r.kern.stats.Hits += scheduled - uint64(len(r.cells))
	}
	return scheduled, nil
}

// listMissing empties the cells of the changed SSets' keys — of every key
// with all — and lists the live key pairs the table then holds no cell for.
// Only a changed SSet's key can lack one, so the list is, for each such key a
// ascending and each live key b ascending, (a, b) and, when b is not among
// those keys (else b's own pass lists it), (b, a); a key pairs with itself
// only where two SSets hold it. Keyed by SSet, that is the changed SSets'
// rows and columns, and with all the pair list in row-major order. Every rank
// derives the same list.
func (r *parRank) listMissing(all bool) {
	pop, tab := r.pop, r.tab
	r.keys = append(r.keys[:0], pop.typ...)
	changed, keys := pop.changed, len(pop.types)
	if !r.byType {
		for i := range r.keys {
			r.keys[i] = int32(i)
		}
		keys = len(tab)
		if all {
			changed = r.every
		}
	}
	clear(r.mark)
	for _, d := range changed {
		r.mark[r.keys[d]] = 1
		if r.byType {
			r.kern.row(pop, d) // stamps the type's epoch, dropping a previous owner's cells, and allocates its row
			continue
		}
		for j := range tab {
			tab[d][j], tab[j][d] = math.NaN(), math.NaN()
		}
	}
	for a := range keys {
		if r.mark[a] == 0 {
			continue
		}
		for b := range keys {
			held := 1 // keyed by SSet: the one SSet that is the key
			if r.byType {
				held = pop.types[b].count
			}
			if held == 0 || a == b && held < 2 {
				continue
			}
			if v := tab[a][b]; v != v {
				r.cells = append(r.cells, [2]int32{int32(a), int32(b)})
			}
			if v := tab[b][a]; r.mark[b] == 0 && v != v {
				r.cells = append(r.cells, [2]int32{int32(b), int32(a)})
			}
		}
	}
	for i := len(r.keys) - 1; i >= 0; i-- {
		r.rep[r.keys[i]] = i
	}
}

// play evaluates a worker's share of the missing cells between the keys'
// lowest holders — by type a memoizable match, so which holders play does
// not matter — from generation gen's streams. Nature plays none.
func (r *parRank) play(gen int) (any, error) {
	if r.c.Rank() == 0 {
		return nil, nil
	}
	tg := r.pt.begin()
	lo, hi := blockRange(len(r.cells), r.c.Size()-1, r.c.Rank()-1)
	r.vals = r.vals[:0]
	for _, ab := range r.cells[lo:hi] {
		v, err := r.kern.payoff(r.cfg, r.pop, r.master, gen, r.rep[ab[0]], r.rep[ab[1]])
		if err != nil {
			return nil, err
		}
		r.vals = append(r.vals, v)
	}
	r.pt.end(PhaseGamePlay, tg)
	return r.vals, nil
}

// meet is the parallel engine's one exchange. Every worker's part (its share
// of the listed cells, or at the window's end its report) is Gathered at
// Nature, and Nature's verdict goes back by Bcast: the listed cells in order
// — the workers' shares, each checked, in rank order — which every rank
// installs, or the stop. Nature also returns the gathered parts.
func (r *parRank) meet(gen int, part any) ([]any, error) {
	tb := r.pt.begin()
	parts, err := r.c.Gather(0, part)
	if err != nil {
		return nil, err
	}
	var v verdict
	var out any
	if r.c.Rank() == 0 {
		v = verdict{Gen: gen, Stop: r.stopErr != nil}
		if len(r.cells) > 0 && !v.Stop {
			v.Cells = make([]float64, 0, len(r.cells))
			for w := 1; w < len(parts); w++ {
				lo, hi := blockRange(len(r.cells), len(parts)-1, w-1)
				cells, ok := parts[w].([]float64)
				if !ok || len(cells) != hi-lo {
					return nil, fmt.Errorf("sim: rank %d sent %T (%d cells) at generation %d, want the %d cells of its share", w, parts[w], len(cells), gen, hi-lo)
				}
				v.Cells = append(v.Cells, cells...)
			}
		}
		out = v.encode()
	}
	p, err := r.c.Bcast(0, out)
	if err != nil {
		return nil, err
	}
	if r.c.Rank() != 0 {
		if v, err = decodeVerdict(r.cfg, p, gen, len(r.cells)); err != nil {
			return nil, err
		}
	}
	if v.Stop {
		// Nature outlives every worker's last send to it.
		if err := r.c.Barrier(); err != nil || r.c.Rank() == 0 {
			return nil, cmp.Or(err, r.stopErr)
		}
		return nil, fmt.Errorf("sim: worker %d: %w", r.c.Rank(), ErrStopped)
	}
	for n, ab := range r.cells {
		r.tab[ab[0]][ab[1]] = v.Cells[n]
	}
	r.pt.end(PhaseBroadcast, tb)
	return parts, nil
}

// fitness is SSet i's relative fitness over the refresh's key vector, folded
// in column order: bit for bit pairBlock.fitness of a block the same refresh
// brought up to date.
func (r *parRank) fitness(i int) float64 {
	row, total := r.tab[r.keys[i]], 0.0
	for j, b := range r.keys {
		if j != i {
			total += row[b]
		}
	}
	return total / float64(len(r.keys)-1)
}

func (r *parRank) fitnesses(teacher, learner int) (float64, float64, error) {
	return r.fitness(teacher), r.fitness(learner), nil
}

// halt goes quiet on a Control stop, which the workers hear of at their next
// meeting: step keeps the stop's error for it.
func (r *parRank) halt() { r.quiet = true }

// meanFitness is Σ n_a(n_b − δ_ab)·tab(a,b) over the refresh's key counts,
// live keys in the order of their lowest holder — O(S + K²) for K live keys.
// It reassociates the sequential engine's sum of row sums in the last bits.
func (r *parRank) meanFitness() (float64, error) {
	clear(r.mark)
	r.live = r.live[:0]
	for _, a := range r.keys {
		if r.mark[a]++; r.mark[a] == 1 {
			r.live = append(r.live, a)
		}
	}
	total := 0.0
	for _, a := range r.live {
		for _, b := range r.live {
			m := r.mark[b]
			if a == b {
				m-- // no SSet plays itself
			}
			if m > 0 {
				total += float64(r.mark[a]*m) * r.tab[a][b]
			}
		}
	}
	s := len(r.keys)
	return total / float64(s*(s-1)), nil
}

// finalize is the end of the window: a meeting whose Gather carries every
// worker's report. Nature cross-checks each against its own view — the
// Counters since the last synchronisation and the live type count, which a
// drifted view changes — and folds FinalFitness from the table. In eviction
// mode a final barrier keeps workers resident until Nature has everything,
// so a late failure still finds every survivor able to agree.
func (r *parRank) finalize() error {
	c, b := r.res.Counters, r.base
	mine := rankReport{Live: len(r.pop.types) - len(r.pop.free), Counters: &Counters{
		GamesPlayed: c.GamesPlayed - b.GamesPlayed, PCEvents: c.PCEvents - b.PCEvents,
		Adoptions: c.Adoptions - b.Adoptions, Mutations: c.Mutations - b.Mutations,
	}}
	if r.cfg.Metrics {
		mine.RankPhaseSnapshot = r.pt.snapshot(r.c.OrigRank())
		mine.Cache = r.kern.cacheStats(r.pop)
	}
	var part any
	if r.c.Rank() != 0 {
		mine.Counters.GamesPlayed += skew(r.cfg, r.c)
		part = mine.encode()
	}
	r.cells = r.cells[:0]
	parts, err := r.meet(r.end, part)
	if err == nil && r.c.Rank() == 0 {
		err = r.collect(mine, parts)
	}
	if err == nil && r.cfg.Evict {
		err = r.c.Barrier()
	}
	return err
}

// collect is Nature's side of the end of the window: the cross-check, the
// run's metrics and FinalFitness.
func (r *parRank) collect(mine rankReport, parts []any) error {
	rm, reps, err := decodeReports(mine.RankPhaseSnapshot, parts)
	if err != nil {
		return err
	}
	for i, rep := range reps {
		if rep.Counters == nil || *rep.Counters != *mine.Counters || rep.Live != mine.Live {
			return fmt.Errorf("sim: worker %d counted %+v over %d live types since the last synchronisation, Nature %+v over %d — global views diverged",
				1+i, rep.Counters, rep.Live, *mine.Counters, mine.Live)
		}
	}
	if r.cfg.Metrics {
		r.res.Metrics = rm
	}
	r.res.FinalFitness = make([]float64, r.cfg.NumSSets) // zeros before a first refresh
	for i := range r.keys {
		r.res.FinalFitness[i] = r.fitness(i)
	}
	return nil
}
