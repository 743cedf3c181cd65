// Package egd is the public face of a massively parallel framework for
// evolutionary game dynamics, reproducing "Massively Parallel Model of
// Evolutionary Game Dynamics" (Peters Randles et al., SC 2012).
//
// The framework models populations of Strategy Sets (SSets) — groups of
// agents sharing one memory-n Iterated Prisoner's Dilemma strategy, n up to
// six (4096 game states, 2^4096 pure strategies) — evolved by a Nature
// Agent through Fermi pairwise-comparison learning and random mutation. The
// engine decomposes the work as the paper's Blue Gene implementation does:
// rank 0 is the Nature Agent, every rank derives each generation's
// population dynamics from the seed and holds the same payoff table, game
// play is communication-free, and the games a generation misses are
// block-distributed over every rank, Nature included, and gathered and
// broadcast back (here, over a goroutine-backed MPI-like runtime). A world
// of one rank plays every game itself and is the reference.
//
// Quick start:
//
//	cfg := egd.Config{Memory: 1, SSets: 64, Generations: 2000, Seed: 1}
//	res, err := egd.Run(cfg)
//
// Config is sim.Spec, the one description of a run the commands and the
// service also use, so a run written here is the same run as `egdsim` flags
// or an `egdserve` job. Advanced users (custom observers, checkpointing, the
// performance model) can use the internal packages directly; this package
// covers the common flows with a flat, stable surface.
package egd

import (
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// Config describes a run: the same sim.Spec the command-line flags fill in
// and egdserve accepts as a JSON job (README.md "Run parameters"). Memory,
// SSets and Generations are required; every other zero value selects the
// paper's default, and the pointer fields PCRate, Mu and Beta keep an
// explicit zero (a run without mutation is Mu pointing at 0).
type Config = sim.Spec

// SeriesPoint is one sampled (generation, value) observation.
type SeriesPoint = stats.Point

// Result summarises a run.
type Result struct {
	// Strategies holds each SSet's final strategy as its response string:
	// pure strategies as 0/1 over states ("0110" = memory-one WSLS), mixed
	// strategies as their nearest pure prefixed with '~'.
	Strategies []string
	// Fitness holds each SSet's final relative fitness (mean per-round
	// payoff over all opponents: 1 = all-defect, 3 = full cooperation
	// under the standard payoff).
	Fitness []float64
	// WSLSFraction is the share of final SSets whose strategy rounds to
	// Win-Stay Lose-Shift (the paper's Fig. 2 readout).
	WSLSFraction float64
	// DistinctStrategies counts distinct final strategies.
	DistinctStrategies int
	// MeanFitness samples population mean fitness over the run.
	MeanFitness []SeriesPoint
	// Cooperation samples the population mean cooperation probability.
	Cooperation []SeriesPoint
	// GamesPlayed, PCEvents, Adoptions, Mutations tally the run's work.
	GamesPlayed uint64
	PCEvents    uint64
	Adoptions   uint64
	Mutations   uint64
	// Elapsed is wall-clock duration; Ranks is the engine width used.
	Elapsed time.Duration
	Ranks   int
}

// Run executes the simulation described by cfg on a world of cfg.Ranks
// ranks (sim.Run; 0 counts as 1). Identical seeds give identical
// trajectories regardless of Ranks.
func Run(cfg Config) (*Result, error) {
	simCfg, err := cfg.Config()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(simCfg, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	return convertResult(simCfg, res), nil
}

func convertResult(cfg sim.Config, res *sim.Result) *Result {
	sp := strategy.NewSpace(cfg.Memory)
	out := &Result{
		Fitness:      res.FinalFitness,
		WSLSFraction: res.FractionNear(strategy.WSLS(sp)),
		GamesPlayed:  res.Counters.GamesPlayed,
		PCEvents:     res.Counters.PCEvents,
		Adoptions:    res.Counters.Adoptions,
		Mutations:    res.Counters.Mutations,
		Elapsed:      res.Elapsed,
		Ranks:        res.Ranks,
	}
	out.Strategies = make([]string, len(res.Final))
	for i, s := range res.Final {
		switch v := s.(type) {
		case *strategy.Pure:
			out.Strategies[i] = v.String()
		case *strategy.Mixed:
			out.Strategies[i] = "~" + v.NearestPure().String()
		}
	}
	out.DistinctStrategies = res.FinalAbundance().Distinct()
	out.MeanFitness = res.MeanFitness.Points()
	out.Cooperation = res.Cooperation.Points()
	return out
}
