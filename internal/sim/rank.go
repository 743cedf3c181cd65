package sim

import (
	"cmp"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/rng"
)

// This file is the engine's protocol. Every rank, Nature included, keeps its
// own copy of the payoffTable (table.go) and runs the one Nature Agent
// generation (parRank.generation) over it: fitness is an SSet's row folded
// in column order, and the adoption is resolved from (Seed, gen, piT, piL),
// so neither a fitness value nor an adoption crosses the wire. The ranks
// meet only where the table lacks a cell: a refresh that finds cells
// missing lists them in an order every rank derives alike, splits the list
// over every rank (blockRange), each plays its block, Nature Gathers the
// blocks and Bcasts its verdict — every new cell — back. A generation
// without a missing cell sends nothing. Where something depends on how far
// ranks drift apart (boundedDrift) each sampled generation is a meeting too,
// and the window's end always is one: its Gather carries every worker's
// report for Nature's cross-check. A world of one is the same code with
// nobody to drift from or tell: it meets only at fills and the end, and its
// collectives are its own.

// blockRange returns rank w's contiguous range of the n work items
// (block-distributed, remainders to the leading ranks). A meeting splits its
// missing cells with it over every rank: when there are fewer ranks than
// SSets a rank plays several whole rows (SSets); when there are more, a
// single SSet's row spans several ranks — the paper's "agents within each
// strategy group" level, where each agent handles s/a opponents ("each
// processor handles the agents of between 1/2 to 8 full SSets", §VI-B).
func blockRange(n, ranks, w int) (lo, hi int) {
	base := n / ranks
	rem := n % ranks
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// boundedDrift reports whether something depends on a run's ranks staying
// within SampleStride generations of each other — the stop latency
// Config.Control documents, RecvTimeout's stall detection — which makes
// every sampled generation a meeting.
func boundedDrift(cfg *Config) bool { return cfg.Control != nil || cfg.RecvTimeout > 0 }

// parRank is one rank of the engine, Nature (rank 0) or a worker: the
// paper's Nature Agent state — the global strategy view and the run's result
// so far — over its own copy of the payoff table. Only Nature records:
// Control, the Observer, checkpoints and the sampled series stay its own,
// and a worker's generation is quiet.
type parRank struct {
	payoffTable
	cfg    *Config
	master *rng.Source
	pop    *Population
	res    *Result
	c      *mpi.Comm
	// gen is the generation about to run; end is one past the last.
	gen, end int
	pt       *phaseTimer
	// quiet marks a generation that records nothing — no Control poll,
	// sampled series, Observer call or checkpoint: a worker's, and Nature's
	// running on from a stop to the meeting that tells the workers.
	quiet bool
	// base is the Counters the window started from (a resumed run's prior
	// ones), which the end of the window cross-checks from.
	base Counters
	// stopErr is a Control stop's error once Nature has saved its snapshot:
	// Nature then runs on quietly to the workers' next meeting, tells them
	// there, and returns it.
	stopErr error
}

func newParRank(cfg *Config, c *mpi.Comm) *parRank {
	master := rng.New(cfg.Seed)
	r := &parRank{
		payoffTable: newPayoffTable(cfg),
		cfg:         cfg,
		master:      master,
		pop:         NewPopulation(*cfg, master),
		// The Result starts from what ResumeFrom restored (nothing on a
		// fresh run) and only ever grows, so a resumed run ends with the
		// uninterrupted run's counters and series.
		res: &Result{
			Counters:    cfg.prior.counters,
			MeanFitness: seriesFromPoints(cfg.SampleStride, cfg.prior.fitness),
			Cooperation: seriesFromPoints(cfg.SampleStride, cfg.prior.coop),
		},
		c:     c,
		gen:   cfg.StartGeneration,
		end:   cfg.StartGeneration + cfg.Generations,
		quiet: c.Rank() != 0,
	}
	r.worker, r.base = r.quiet, r.res.Counters
	if cfg.Metrics {
		r.pt = newPhaseTimer()
	}
	return r
}

// run drives the rank through its generations and the end of the window.
func (r *parRank) run() error {
	for r.gen < r.end {
		err := r.generation()
		if r.quiet && r.c.Rank() == 0 && r.stopErr == nil {
			r.stopErr, err = err, nil // the stop's error: its snapshot is saved
		}
		if err != nil {
			return err
		}
	}
	return r.finalize()
}

// refresh brings the table up to date for generation gen: the scheduled
// games are the closed form every rank derives alike, and a meeting fills
// whatever cells the changed SSets' keys lack.
func (r *parRank) refresh(gen int) (uint64, error) {
	scheduled := r.listMissing(r.cfg, r.pop)
	if len(r.cells) > 0 || gen%r.cfg.SampleStride == 0 && r.c.Size() > 1 && boundedDrift(r.cfg) {
		part, err := r.playShare(gen)
		if err == nil {
			_, err = r.meet(gen, part)
		}
		if err != nil {
			return scheduled, err
		}
	}
	return scheduled, nil
}

// playShare plays this rank's block of the missing cells from generation
// gen's streams: every cell on a world of one.
func (r *parRank) playShare(gen int) ([]float64, error) {
	tg := r.pt.begin()
	lo, hi := blockRange(len(r.cells), r.c.Size(), r.c.Rank())
	vals, err := r.playCells(r.cfg, r.pop, r.master, gen, r.cells[lo:hi])
	if err != nil {
		return nil, err
	}
	r.pt.end(PhaseGamePlay, tg)
	return vals, nil
}

// meet is the engine's one exchange. Every rank's part (its block of the
// listed cells, or at the window's end a worker's report) is Gathered at
// Nature, which checks each block against its range and installs it. Its
// verdict goes back by Bcast: the blocks in rank order, which every worker
// installs, or the stop. A world of one has nobody to tell, and Nature
// encodes no verdict. Nature also returns the gathered parts.
func (r *parRank) meet(gen int, part any) ([]any, error) {
	tb := r.pt.begin()
	parts, err := r.c.Gather(0, part)
	if err != nil {
		return nil, err
	}
	stop := r.stopErr != nil
	var out []byte
	if r.c.Rank() == 0 {
		n := len(r.cells)
		if stop {
			n = 0
		}
		if len(parts) > 1 {
			out = verdict{Gen: gen, Stop: stop}.head(n)
		}
		for w := 0; n > 0 && w < len(parts); w++ {
			lo, hi := blockRange(n, len(parts), w)
			cells, ok := parts[w].([]float64)
			if !ok || len(cells) != hi-lo {
				return nil, fmt.Errorf("sim: rank %d sent %T (%d cells) at generation %d, want the %d cells of its share", w, parts[w], len(cells), gen, hi-lo)
			}
			r.install(r.cells[lo:hi], cells)
			if out != nil {
				out = appendCells(out, cells)
			}
		}
	}
	p, err := r.c.Bcast(0, out)
	if err != nil {
		return nil, err
	}
	if r.c.Rank() != 0 {
		v, err := decodeVerdict(p, gen, len(r.cells))
		if err != nil {
			return nil, err
		}
		if stop = v.Stop; !stop {
			r.install(r.cells, v.Cells)
		}
	}
	if stop {
		// Nature outlives every worker's last send to it.
		if err := r.c.Barrier(); err != nil || r.c.Rank() == 0 {
			return nil, cmp.Or(err, r.stopErr)
		}
		return nil, fmt.Errorf("sim: worker %d: %w", r.c.Rank(), ErrStopped)
	}
	r.pt.end(PhaseBroadcast, tb)
	return parts, nil
}

// finalize is the end of the window: a meeting whose Gather carries every
// worker's report. Nature cross-checks each against its own view — the
// Counters of the window and the live type count, which a drifted view
// changes — and folds FinalFitness from the table.
func (r *parRank) finalize() error {
	c, b := r.res.Counters, r.base
	mine := rankReport{Live: len(r.pop.types) - len(r.pop.free), Counters: &Counters{
		GamesPlayed: c.GamesPlayed - b.GamesPlayed, PCEvents: c.PCEvents - b.PCEvents,
		Adoptions: c.Adoptions - b.Adoptions, Mutations: c.Mutations - b.Mutations,
	}}
	if r.cfg.Metrics {
		mine.RankPhaseSnapshot = r.pt.snapshot(r.c.Rank())
		mine.Cache = r.cacheStats(r.pop)
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
			return fmt.Errorf("sim: worker %d counted %+v over %d live types in the window, Nature %+v over %d — global views diverged",
				1+i, rep.Counters, rep.Live, *mine.Counters, mine.Live)
		}
	}
	if r.cfg.Metrics {
		r.res.Metrics = rm
	}
	r.res.FinalFitness = r.finalFitness()
	return nil
}
