package sim

import (
	"cmp"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/strategy"
)

// This file is the parallel engine's protocol for a run whose every match is
// served by type (servedByType). Every rank, Nature included, keeps the same
// payoff table π and runs the one Nature Agent generation (nature.generation)
// over it: fitness is Σ_j π[t_i][t_j] folded in column order, the adoption
// is resolved from (Seed, gen, piT, piL), so neither a fitness segment nor an
// adoption crosses the wire. The ranks meet only where π lacks a cell: a
// refresh that finds live type pairs without one lists them in an order
// every rank derives alike, splits the list over the workers (blockRange;
// Nature plays none), Gathers the played cells at Nature and Bcasts Nature's
// verdict — every new cell — back. A generation without a missing cell sends
// nothing. Where something depends on how far ranks drift apart
// (boundedDrift) each sampled generation is a meeting too, and the window's
// end always is one: its Gather carries every worker's report for Nature's
// cross-check.

// servedByType reports whether every match of cfg's run is served from π by
// type — exact payoffs, or error-free play among deterministic strategies
// only (the pure kind, and initial strategies the type table knows and that
// are deterministic), never the reference kernel — and with it whether the
// parallel engine runs this file's protocol.
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

// boundedDrift reports whether something depends on a typed run's ranks
// staying within SampleStride generations of each other — the stop latency
// Config.Control documents, RecvTimeout's stall detection, live eviction —
// which makes every sampled generation a meeting.
func boundedDrift(cfg *Config) bool { return cfg.Control != nil || cfg.RecvTimeout > 0 || cfg.Evict }

// typedRank is one rank of a typed run, Nature (dense rank 0) or a worker,
// and its own fitness source. Only Nature records: Control, the Observer,
// checkpoints and the sampled series stay its own, and a worker's
// generation is quiet.
type typedRank struct {
	*nature
	c    *mpi.Comm
	kern *payoffKernel
	// fitTyp is the type vector as of the last refresh, which fitness, mean
	// fitness and FinalFitness fold over; nil before the first.
	fitTyp []int32
	// cells lists the live type pairs the last refresh found without a cell;
	// rep[a] is the lowest SSet holding type a then. mark, vals and live are
	// scratch.
	cells     [][2]int32
	rep, mark []int
	vals      []float64
	live      []int32
	// base is the Counters at the last (re)synchronisation, which the end of
	// the window cross-checks from.
	base Counters
	// stopErr is a Control stop's error once Nature has saved its snapshot:
	// Nature then runs on quietly to the workers' next meeting, tells them
	// there, and returns it.
	stopErr error
}

func newTypedRank(cfg *Config, c *mpi.Comm) *typedRank {
	r := &typedRank{nature: newNature(cfg), c: c, kern: newPayoffKernel(cfg), rep: make([]int, cfg.NumSSets), mark: make([]int, cfg.NumSSets)}
	r.src, r.stepTimer, r.quiet, r.base = r, r.pt, c.Rank() != 0, r.res.Counters
	return r
}

func (r *typedRank) position() int { return r.gen }

// step runs the next generation, or the end of the window. The eviction
// rollback point is the top of the generation; a failure at the end of the
// window replays the last one, whose refresh is the type vector
// FinalFitness folds over, so only a window without a generation resumes at
// its end.
func (r *typedRank) step() (bool, error) {
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
// agree again, and forgets π: with every stamp cleared, each type's row and
// column are dropped on its first touch (payoffKernel.met), and the next
// refresh refills them.
func (r *typedRank) resync(nc *mpi.Comm) error {
	var out any
	if nc.Rank() == 0 {
		r.rollback()
		out = resume{Gen: r.gen, Replay: min(r.gen, r.end-1), Strategies: r.snap.strategies}.encode()
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
	r.pop, r.fitTyp = NewPopulation(cfg, r.master), nil
	clear(r.kern.seen)
	// A worker's counters may be ahead of or behind Nature's: the cross-check
	// counts from here.
	r.c, r.gen, r.base = nc, rs.Gen, r.res.Counters
	return nil
}

// refresh brings π up to date for generation gen: the scheduled games are
// the closed form every rank derives alike, and a meeting fills whatever
// cells the changed SSets' types lack. Nature books every scheduled game no
// worker played as a hit.
func (r *typedRank) refresh(gen int) (uint64, error) {
	pop := r.pop
	scheduled := scheduledGames(pop.Size(), len(pop.changed), r.cfg.FullRecompute)
	r.cells = r.cells[:0]
	if len(pop.changed) > 0 {
		r.fitTyp = append(r.fitTyp[:0], pop.typ...)
		r.listMissing()
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

// listMissing lists the live type pairs π holds no cell for. Only a changed
// SSet's type can lack one, so the list is, for each such type a ascending
// and each live type b ascending, (a, b) and, when b is not among those
// types (else b's own pass lists it), (b, a); a type pairs with itself only
// where two SSets hold it. Every rank derives the same list.
func (r *typedRank) listMissing() {
	pop, pi := r.pop, r.kern.pi
	clear(r.mark)
	for _, d := range pop.changed {
		r.mark[pop.typ[d]] = 1
		r.kern.row(pop, d) // stamps the type's epoch, dropping a previous owner's cells, and allocates its row
	}
	for a := range pop.types {
		if r.mark[a] == 0 {
			continue
		}
		for b, tb := range pop.types {
			if tb.count == 0 || a == b && tb.count < 2 {
				continue
			}
			if v := pi[a][b]; v != v {
				r.cells = append(r.cells, [2]int32{int32(a), int32(b)})
			}
			if v := pi[b][a]; r.mark[b] == 0 && v != v {
				r.cells = append(r.cells, [2]int32{int32(b), int32(a)})
			}
		}
	}
	for i := len(pop.typ) - 1; i >= 0; i-- {
		r.rep[pop.typ[i]] = i
	}
}

// play evaluates a worker's share of the missing cells between the types'
// lowest holders: memoizable matches, so which holders play does not
// matter. Nature plays none.
func (r *typedRank) play(gen int) (any, error) {
	if r.c.Rank() == 0 {
		return nil, nil
	}
	tg := r.pt.begin()
	lo, hi := blockRange(len(r.cells), r.c.Size()-1, r.c.Rank()-1)
	r.vals = r.vals[:0]
	for _, ab := range r.cells[lo:hi] {
		i, j := r.rep[ab[0]], r.rep[ab[1]]
		v, err := r.kern.play(r.cfg, r.master, gen, i, j, r.pop.strategies[i], r.pop.strategies[j])
		if err != nil {
			return nil, err
		}
		r.vals = append(r.vals, v)
	}
	r.kern.stats.Misses += uint64(hi - lo)
	r.pt.end(PhaseGamePlay, tg)
	return r.vals, nil
}

// meet is a typed run's one exchange. Every worker's part (its share of the
// listed cells, or at the window's end its report) is Gathered at Nature,
// and Nature's verdict goes back by Bcast: the listed cells in order — the
// workers' shares, each checked, in rank order — which every rank installs,
// or the stop. Nature also returns the gathered parts.
func (r *typedRank) meet(gen int, part any) ([]any, error) {
	tb := r.pt.begin()
	parts, err := r.c.Gather(0, part)
	if err != nil {
		return nil, err
	}
	var out any
	if r.c.Rank() == 0 {
		v := verdict{Gen: gen, Stop: r.stopErr != nil}
		for w := 1; w < len(parts) && len(r.cells) > 0 && !v.Stop; w++ {
			lo, hi := blockRange(len(r.cells), len(parts)-1, w-1)
			cells, ok := parts[w].([]float64)
			if !ok || len(cells) != hi-lo {
				return nil, fmt.Errorf("sim: rank %d sent %T (%d cells) at generation %d, want the %d cells of its share", w, parts[w], len(cells), gen, hi-lo)
			}
			v.Cells = append(v.Cells, cells...)
		}
		out = v.encode()
	}
	p, err := r.c.Bcast(0, out)
	if err != nil {
		return nil, err
	}
	v, err := decodeVerdict(r.cfg, p, gen, false, len(r.cells))
	if err != nil {
		return nil, err
	}
	if v.Stop {
		// Nature outlives every worker's last send to it.
		if err := r.c.Barrier(); err != nil || r.c.Rank() == 0 {
			return nil, cmp.Or(err, r.stopErr)
		}
		return nil, fmt.Errorf("sim: worker %d: %w", r.c.Rank(), ErrStopped)
	}
	for n, ab := range r.cells {
		r.kern.pi[ab[0]][ab[1]] = v.Cells[n]
	}
	r.pt.end(PhaseBroadcast, tb)
	return parts, nil
}

// fitness is SSet i's relative fitness over the refresh's type vector,
// folded in column order: bit for bit pairBlock.fitness of a block the same
// refresh brought up to date.
func (r *typedRank) fitness(i int) float64 {
	row, total := r.kern.pi[r.fitTyp[i]], 0.0
	for j, b := range r.fitTyp {
		if j != i {
			total += row[b]
		}
	}
	return total / float64(len(r.fitTyp)-1)
}

func (r *typedRank) fitnesses(teacher, learner int) (float64, float64, error) {
	return r.fitness(teacher), r.fitness(learner), nil
}

// verdict has nothing to tell in a typed run, where every rank resolves the
// adoption itself, but a Control stop: Nature goes quiet, and step keeps the
// stop's error for the workers' next meeting to tell.
func (r *typedRank) verdict(v verdict) error {
	r.quiet = r.quiet || v.Stop
	return nil
}

// meanFitness is Σ n_a(n_b − δ_ab)π(a,b) over the refresh's type counts,
// live types in the order of their lowest holder — O(S + K²) for K live
// types. It reassociates the sequential engine's sum of row sums in the
// last bits.
func (r *typedRank) meanFitness() (float64, error) {
	clear(r.mark)
	r.live = r.live[:0]
	for _, a := range r.fitTyp {
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
				total += float64(r.mark[a]*m) * r.kern.pi[a][b]
			}
		}
	}
	s := len(r.fitTyp)
	return total / float64(s*(s-1)), nil
}

// finalize is the end of the window: a meeting whose Gather carries every
// worker's report. Nature cross-checks each against its own view — the
// Counters since the last synchronisation and the live type count, which a
// drifted view changes — and folds FinalFitness from π. In eviction mode a
// final barrier keeps workers resident until Nature has everything, so a
// late failure still finds every survivor able to agree.
func (r *typedRank) finalize() error {
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
func (r *typedRank) collect(mine rankReport, parts []any) error {
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
	for i := range r.fitTyp {
		r.res.FinalFitness[i] = r.fitness(i)
	}
	return nil
}
