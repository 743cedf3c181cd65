// Package sim implements the paper's evolutionary game dynamics: Strategy
// Sets (SSets) of agents playing the Iterated Prisoner's Dilemma against
// every other SSet's strategy (game dynamics, §IV-A), evolved by a Nature
// Agent through Fermi pairwise-comparison learning and random mutation
// (population dynamics, §IV-B).
//
// One engine runs the paper's SPMD decomposition over the mpi runtime
// (RunParallel): rank 0 is the Nature Agent, and every rank derives each
// generation's plan (selection, mutant, sampling) from the seed, holds the
// same payoff table and runs the generation itself. The table is keyed by
// strategy type when every match is served by type (exact payoffs, or
// error-free deterministic play) and by SSet otherwise; the ranks meet only
// to fill the cells it lacks — a new type's, or a changed SSet's row and
// column — one Gather and one Bcast, every rank, Nature included, playing a
// block of them. The trajectory is the same at every rank count, so a world
// of one (RunSequential), which plays every cell itself, is the reference.
//
// Fitness evaluation supports the paper's every-generation full recompute
// (FullRecompute, used in its timing studies) and an incremental mode that
// exploits the fact that payoffs only change when a strategy changes —
// letting long trajectories such as the Fig. 2 WSLS validation run at
// laptop scale with identical dynamics.
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// StrategyKind selects the strategy representation evolved by the run.
type StrategyKind int

const (
	// PureStrategies evolves deterministic bit-table strategies (the
	// paper's scaling studies).
	PureStrategies StrategyKind = iota
	// MixedStrategies evolves probabilistic strategies (the paper's Fig. 2
	// WSLS validation, following Nowak & Sigmund).
	MixedStrategies
)

// Config parameterises a simulation run. Zero values are replaced by the
// paper's defaults in Validate where noted.
type Config struct {
	// Memory is the strategy memory depth n in [1,6].
	Memory int
	// NumSSets is the number of Strategy Sets (the population of
	// strategies).
	NumSSets int
	// Generations is the number of evolution steps.
	Generations int
	// Rules are the per-match IPD parameters; a zero value selects the
	// paper's defaults (payoff [3,0,4,1], 200 rounds, no errors).
	Rules game.Rules
	// PCRate is the per-generation probability of a pairwise-comparison
	// learning event (paper: 0.10 for production, 0.01 in the Table VI
	// scaling runs). Zero keeps zero; set explicitly.
	PCRate float64
	// Mu is the per-generation probability of a random mutation replacing
	// a random SSet's strategy (paper: 0.05).
	Mu float64
	// Beta is the Fermi selection intensity (Equation 1). The paper does
	// not publish its value; 1.0 gives moderately strong selection on
	// per-round payoff differences.
	Beta float64
	// Kind selects pure or mixed strategies.
	Kind StrategyKind
	// Seed drives every random decision; identical seeds give identical
	// trajectories at any rank count.
	Seed uint64
	// FullRecompute forces every SSet's fitness to be recomputed every
	// generation, as the paper's timing studies do. When false, fitness is
	// recomputed only when a strategy changes (identical dynamics for
	// deterministic games; for mixed strategies the cached payoff stands in
	// for resampling, trading sampling noise for tractable long runs).
	FullRecompute bool
	// AllowWorseAdoption, when true, uses the unconditional Fermi rule
	// (Traulsen et al.): the learner may adopt a worse-scoring teacher with
	// probability < 1/2. When false (default) the paper's explicit gate
	// applies: adoption only if the teacher's fitness is strictly higher.
	AllowWorseAdoption bool
	// UseSearchEngine selects the paper-faithful linear find_state lookup
	// in the IPD inner loop instead of direct indexing (ablation).
	UseSearchEngine bool
	// ExactPayoffs replaces the finite sampled match (Rules.Rounds rounds)
	// with the exact infinite-game payoff from the Markov stationary
	// analysis — the evaluation the original Nowak-Sigmund study used.
	// Execution errors still apply (folded into the chain); Rules.Rounds is
	// ignored. Mutually exclusive with UseSearchEngine.
	ExactPayoffs bool
	// PayoffCache is ignored; kept for bench/. The payoff table by strategy
	// type is always on where a run can be memoized (docs/KERNEL.md), and
	// bench/ still sets and reads this field (ROADMAP item 1's shim ledger).
	PayoffCache bool
	// SampleStride keeps every k-th generation in the recorded time series
	// (0 selects an automatic stride bounding series length to ~1000).
	SampleStride int
	// Observer, when non-nil, is invoked after every generation. It runs on
	// the Nature Agent, and the *Population it receives is the Nature
	// Agent's global strategy view — each SSet's strategy plus the
	// statistics derived from strategies alone (Abundance, FractionNear,
	// MeanCooperationProb, Snapshot) — identical at every rank count. It carries no payoffs or fitness: those
	// live with whichever rank plays the games, and reach the caller as
	// Result.MeanFitness and Result.FinalFitness.
	Observer Observer
	// Control, when non-nil, is polled at the top of every generation on
	// the Nature rank. The workers, who listen to nobody between meetings,
	// unwind at their next one — at most SampleStride generations later,
	// their work past the stop discarded: on more than one rank the engine
	// makes every sampled generation a meeting for this bound. A world of
	// one stops at once.
	// A non-nil return stops the run at that generation boundary: the
	// engine persists a resume snapshot to CheckpointSink (when one is
	// configured) and returns an error wrapping both ErrStopped and the
	// hook's error. Pause/cancel in a hosting service builds on this:
	// resume the stopped run from the persisted snapshot via ResumeFrom and
	// it continues bit-identically (for deterministic games), ending in the
	// Result the uninterrupted run returns.
	Control func(gen int) error
	// InitialStrategies, when non-nil, seeds the population instead of
	// random initialisation (ResumeFrom sets it from a checkpoint). Length must
	// equal NumSSets and every strategy must live in the Memory space.
	// Strategies are cloned; the caller's slice is not retained.
	InitialStrategies []strategy.Strategy
	// StartGeneration offsets the generation counter. Every per-generation
	// random stream is keyed by the absolute generation number, so a run
	// resumed from generation g's snapshot (ResumeFrom sets StartGeneration
	// = g) continues the original trajectory exactly (bit-identical; a run
	// keeping noisy or mixed cells across generations replays each from
	// the generation the snapshot records for it).
	StartGeneration int
	// CheckpointEvery makes the Nature Agent persist a snapshot to
	// CheckpointSink every k completed generations (0 disables). The
	// snapshot captures strategies, cumulative counters and the sampled
	// series — the whole run so far, and everything ResumeFrom needs, since
	// per-generation randomness re-derives from (Seed, generation).
	CheckpointEvery int
	// CheckpointSink receives periodic snapshots; required when
	// CheckpointEvery > 0.
	CheckpointSink CheckpointSink
	// RecvTimeout, when positive, bounds every blocking receive of the
	// engine's ranks (including collective-internal ones): a rank stalled
	// past the deadline fails with mpi.ErrRecvTimeout instead of hanging —
	// the detection half of worker-failure recovery. It must comfortably
	// exceed the longest stretch between meetings: up to SampleStride
	// generations of compute during which a healthy rank sends nothing (the
	// engine, which otherwise meets only to fill its payoff table, makes
	// every sampled generation a meeting on more than one rank when it is
	// set).
	RecvTimeout time.Duration
	// FaultPlan, when non-nil, is installed into the engine's world: scripted deterministic fault injection for resilience tests.
	FaultPlan *mpi.FaultPlan
	// EventLog, when non-nil, receives fault-tolerance events (checkpoints
	// written, faults seen, recoveries performed) from the engine and
	// supervisor.
	EventLog *trace.EventLog
	// Metrics enables the observability layer: per-rank phase timers and
	// per-rank communication accounting, aggregated into Result.Metrics at run end. Collection never
	// feeds back into the trajectory — parity and bit-exactness hold with
	// it on or off (see docs/OBSERVABILITY.md).
	Metrics bool

	// prior is the run before StartGeneration, set only by ResumeFrom.
	prior priorRun
	// referenceKernel keys the payoff table by SSet whatever the run: the
	// reference the bit-parity tests hold a run served by type to. No Spec
	// field, flag or front end reaches it.
	referenceKernel bool
	// skewRank, when non-zero, makes the worker at that rank report
	// one game more than it played at the end of the window: a drifted view,
	// for the tests of Nature's cross-check.
	skewRank int
}

// Observer receives per-generation callbacks from the Nature Agent.
type Observer interface {
	// Generation is called after generation gen's evolution step with the
	// population (valid only during the call) and the generation's events.
	Generation(gen int, pop *Population, ev Events)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(gen int, pop *Population, ev Events)

// Generation implements Observer.
func (f ObserverFunc) Generation(gen int, pop *Population, ev Events) { f(gen, pop, ev) }

// Events records what the Nature Agent did in one generation.
type Events struct {
	// PCOccurred reports whether a pairwise comparison event fired.
	PCOccurred bool
	// Teacher and Learner are the compared SSets when PCOccurred.
	Teacher, Learner int
	// Adopted reports whether the learner copied the teacher's strategy.
	Adopted bool
	// MutationOccurred reports whether a random strategy replaced an SSet.
	MutationOccurred bool
	// Mutant is the SSet that received a new strategy when
	// MutationOccurred.
	Mutant int
}

// Default simulation parameters from the paper's §V-C.
const (
	DefaultPCRate = 0.10
	DefaultMu     = 0.05
	DefaultBeta   = 1.0
)

// DefaultConfig returns the paper's standard configuration for the given
// memory depth and population, with a 1000-generation run.
func DefaultConfig(memory, numSSets int) Config {
	return Config{
		Memory:      memory,
		NumSSets:    numSSets,
		Generations: 1000,
		Rules:       game.DefaultRules(),
		PCRate:      DefaultPCRate,
		Mu:          DefaultMu,
		Beta:        DefaultBeta,
	}
}

// Validate normalises defaults and checks the configuration.
func (c *Config) Validate() error {
	if c.Memory < 1 || c.Memory > 6 {
		return fmt.Errorf("sim: memory %d out of [1,6]", c.Memory)
	}
	if c.NumSSets < 2 {
		return fmt.Errorf("sim: need >= 2 SSets, got %d", c.NumSSets)
	}
	if c.Generations < 0 {
		return fmt.Errorf("sim: negative generations %d", c.Generations)
	}
	if c.Rules == (game.Rules{}) {
		c.Rules = game.DefaultRules()
	}
	if err := c.Rules.Validate(); err != nil {
		return err
	}
	// The negated comparisons reject NaN too: a NaN rate satisfies neither
	// bound yet would silently poison every downstream probability.
	if !(c.PCRate >= 0 && c.PCRate <= 1) {
		return fmt.Errorf("sim: PC rate %v out of [0,1]", c.PCRate)
	}
	if !(c.Mu >= 0 && c.Mu <= 1) {
		return fmt.Errorf("sim: mutation rate %v out of [0,1]", c.Mu)
	}
	if !(c.Beta >= 0) {
		return fmt.Errorf("sim: beta %v < 0", c.Beta)
	}
	if c.SampleStride < 0 {
		return fmt.Errorf("sim: sample stride %v < 0", c.SampleStride)
	}
	if c.SampleStride == 0 {
		c.SampleStride = autoStride(c.Generations)
	}
	if c.StartGeneration < 0 {
		return fmt.Errorf("sim: negative start generation %d", c.StartGeneration)
	}
	if c.Generations > math.MaxInt-c.StartGeneration {
		return fmt.Errorf("sim: %d generations from generation %d end past the largest int", c.Generations, c.StartGeneration)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("sim: negative checkpoint interval %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointSink == nil {
		return fmt.Errorf("sim: CheckpointEvery %d set without a CheckpointSink", c.CheckpointEvery)
	}
	if c.RecvTimeout < 0 {
		return fmt.Errorf("sim: negative receive timeout %v", c.RecvTimeout)
	}
	if c.ExactPayoffs && c.UseSearchEngine {
		return fmt.Errorf("sim: ExactPayoffs and UseSearchEngine are mutually exclusive")
	}
	if c.ExactPayoffs {
		// Probe exact-mode computability once, up front: a job whose Markov
		// analysis cannot run (rules the chain solver rejects) must fail
		// validation here rather than surface mid-run from payoffTable.play.
		sp := strategy.NewSpace(c.Memory)
		probe := strategy.AllC(sp)
		if _, _, err := analysis.NewSolver(sp).Payoff(c.Rules.Payoff, probe, probe, c.Rules.ErrorRate); err != nil {
			return fmt.Errorf("sim: exact payoffs not computable for this configuration: %w", err)
		}
	}
	if c.InitialStrategies != nil {
		if len(c.InitialStrategies) != c.NumSSets {
			return fmt.Errorf("sim: %d initial strategies for %d SSets", len(c.InitialStrategies), c.NumSSets)
		}
		sp := strategy.NewSpace(c.Memory)
		for i, s := range c.InitialStrategies {
			if s == nil {
				return fmt.Errorf("sim: nil initial strategy %d", i)
			}
			if s.Space() != sp {
				return fmt.Errorf("sim: initial strategy %d is not memory-%d", i, c.Memory)
			}
		}
	}
	return nil
}

// autoStride is the automatic SampleStride for a window of gens
// generations: it bounds the recorded series to ~1000 points.
func autoStride(gens int) int { return gens/1000 + 1 }

// PopulationSize returns the total number of agents. The paper gives each
// SSet as many agents as there are SSets, so each agent plays exactly one
// opponent per generation and the population grows as the square of the SSet
// count (the mechanism behind its 10^18-agent populations). The engine
// schedules SSet pairs, not agents: this is a reported figure only.
func (c Config) PopulationSize() uint64 {
	return uint64(c.NumSSets) * uint64(c.NumSSets)
}

// GamesPerGeneration returns the number of two-player IPD matches one
// generation requires: every SSet measures its strategy against every other
// SSet's strategy.
func (c Config) GamesPerGeneration() uint64 {
	s := uint64(c.NumSSets)
	return s * (s - 1)
}
