package sim

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// Counters tallies the work a run performed. It is the snapshot's counter
// block itself, so a run and its checkpoints cannot disagree on the fields.
type Counters = checkpoint.RunCounters

// Result is the outcome of a simulation run.
type Result struct {
	// Final holds deep copies of every SSet's final strategy.
	Final []strategy.Strategy
	// FinalFitness holds every SSet's final relative fitness.
	FinalFitness []float64
	// MeanFitness samples the population mean fitness over generations
	// (per-round payoff scale: 1 = all-defect, 3 = full cooperation).
	MeanFitness *stats.Series
	// Cooperation samples the population mean cooperation probability.
	Cooperation *stats.Series
	// Counters tallies games and evolution events.
	Counters Counters
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Ranks is the number of ranks the run finished on.
	Ranks int
	// Restarts is how many times the recovery supervisor restarted the run
	// (0 for a direct or fault-free run).
	Restarts int
	// Metrics holds the run's observability aggregate (per-rank phase
	// timings and comm accounting); nil unless
	// Config.Metrics was set.
	Metrics *RunMetrics

	// played is what Snapshot records of the final population's
	// Population.played (nature.played).
	played []uint64
}

// FinalAbundance tallies the final population's strategy abundance.
func (r *Result) FinalAbundance() *stats.Abundance { return abundance(r.Final) }

// FractionNear returns the share of final SSets whose strategy rounds to
// the pure strategy ref (Fig. 2's "85% of all SSets adopted WSLS" measure).
func (r *Result) FractionNear(ref *strategy.Pure) float64 { return fractionNear(r.Final, ref) }

// Snapshot is the finished run as a checkpoint: the final population and
// fitness at the generation cfg's window ends on, with the cumulative
// counters and both series — what the engines' periodic and stop snapshots
// carry, so Config.ResumeFrom continues the run from it as from any of
// those. cfg is the configuration the run was started with.
func (r *Result) Snapshot(cfg Config) *checkpoint.Snapshot {
	snap := newSnapshot(&cfg, cfg.StartGeneration+cfg.Generations, r.Final, r.Counters, r.MeanFitness, r.Cooperation, r.played)
	snap.Fitness = r.FinalFitness
	return snap
}
