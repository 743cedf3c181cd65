package sim

import (
	"repro/internal/rng"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Derivation keys for the independent random streams of a run. Both engines
// derive the same streams from the master seed, which is what makes the
// sequential and parallel trajectories bit-identical.
const (
	keyNature = 0x4E41 // Nature Agent decisions
	keyMutant = 0x4D55 // mutant strategy generation
)

// decision is the Nature Agent's plan for one generation, computed before
// fitness is consulted: whether a PC event fires and which SSets it
// compares, and whether a mutation fires and which SSet it hits. The
// adoption itself depends on fitness and is resolved by resolveAdoption.
type decision struct {
	pc               bool
	teacher, learner int
	mutate           bool
	mutant           int
}

// natureDecision draws generation gen's plan from the master seed. The
// stream is derived per generation, so the plan is independent of engine
// and rank layout.
func natureDecision(cfg *Config, master *rng.Source, gen int) decision {
	src := master.Derive(keyNature, uint64(gen))
	var d decision
	if src.Bernoulli(cfg.PCRate) {
		d.pc = true
		d.teacher, d.learner = src.Pair(cfg.NumSSets)
	}
	if src.Bernoulli(cfg.Mu) {
		d.mutate = true
		d.mutant = src.Intn(cfg.NumSSets)
	}
	return d
}

// resolveAdoption decides whether the learner adopts the teacher's strategy
// given their fitness values, per the paper's §IV-B: the Fermi probability
// (Equation 1), gated — unless AllowWorseAdoption — on the teacher strictly
// outperforming the learner. The random draw comes from the same
// per-generation Nature stream, offset so it cannot collide with
// natureDecision's draws.
func resolveAdoption(cfg *Config, master *rng.Source, gen int, piT, piL float64) bool {
	if !cfg.AllowWorseAdoption && piT <= piL {
		return false
	}
	src := master.Derive(keyNature, uint64(gen), 1)
	return src.Bernoulli(Fermi(cfg.Beta, piT, piL))
}

// mutantStrategy generates the replacement strategy for generation gen's
// mutation event (the paper's gen_new_strat). Deriving by generation keeps
// the mutant identical across engines.
func mutantStrategy(cfg *Config, master *rng.Source, sp strategy.Space, gen int) strategy.Strategy {
	src := master.Derive(keyMutant, uint64(gen))
	return randomStrategy(cfg.Kind, sp, src)
}

// fitnessSource is the seam between the Nature Agent's generation and the
// place payoffs live. Both sources hold a payoffTable (table.go), which
// answers fitnesses and meanFitness; they differ in how refresh fills it.
// The sequential engine's source plays every listed cell itself and has
// nobody to tell. Every rank of the parallel engine, Nature included, runs
// generation over its own copy of the table (parRank) and meets the other
// ranks only to fill it. Each source books its own phase timings.
type fitnessSource interface {
	// refresh brings every pair's payoff up to date for generation gen and
	// returns how many games the schedule touched.
	refresh(gen int) (uint64, error)
	// fitnesses returns the relative fitness of the two selected SSets,
	// teacher first.
	fitnesses(teacher, learner int) (piT, piL float64, err error)
	// halt tells whoever plays the games what only Nature knows: that the
	// run stops at this generation boundary.
	halt()
	// meanFitness returns the population's mean relative fitness for the
	// sampled series; it is asked only on generations SampleStride divides.
	meanFitness() (float64, error)
	// finalFitness returns every SSet's fitness over the last refresh.
	finalFitness() []float64
}

// nature is the paper's Nature Agent (§IV-B): the global strategy view, the
// run's result so far, and the one generation both engines execute.
type nature struct {
	cfg    *Config
	master *rng.Source
	pop    *Population
	res    *Result
	src    fitnessSource
	// gen is the generation about to run; end is one past the last.
	gen, end int
	pt       *phaseTimer
	// quiet marks a generation that records nothing — no Control poll,
	// sampled series, Observer call or checkpoint: a parallel run's worker,
	// and its Nature running on from a stop to the meeting that tells it.
	quiet bool
}

func newNature(cfg *Config) *nature {
	master := rng.New(cfg.Seed)
	n := &nature{
		cfg:    cfg,
		master: master,
		pop:    NewPopulation(*cfg, master),
		// The Result starts from what ResumeFrom restored (nothing on a
		// fresh run) and only ever grows, so a resumed run ends with the
		// uninterrupted run's counters and series.
		res: &Result{
			Counters:    cfg.prior.counters,
			MeanFitness: seriesFromPoints(cfg.SampleStride, cfg.prior.fitness),
			Cooperation: seriesFromPoints(cfg.SampleStride, cfg.prior.coop),
		},
		gen: cfg.StartGeneration,
		end: cfg.StartGeneration + cfg.Generations,
	}
	if cfg.Metrics {
		n.pt = newPhaseTimer()
	}
	return n
}

// generation runs generation n.gen — the paper's Nature Agent pseudo-code —
// and advances n.gen on success. Every random draw derives from (seed, gen),
// and the source delivers fitness folded in column order, so the trajectory
// is the same whichever source is plugged in.
func (n *nature) generation() error {
	cfg, gen := n.cfg, n.gen
	// Control poll at the generation boundary (pause/cancel for a hosting
	// service). The stop is told first — the players are already on their
	// games and unwind at their next meeting — and then the resume snapshot
	// is persisted.
	if cfg.Control != nil && !n.quiet {
		if cause := cfg.Control(gen); cause != nil {
			n.src.halt()
			return n.stop(cause)
		}
	}

	// Game dynamics: every SSet's payoffs are brought up to date.
	played, err := n.src.refresh(gen)
	n.res.Counters.GamesPlayed += played
	if err != nil {
		return err
	}
	n.pop.clearDirty(gen)

	// Population dynamics: the PC learning event and the mutation event.
	tn := n.pt.begin()
	d := natureDecision(cfg, n.master, gen)
	ev := Events{
		PCOccurred:       d.pc,
		Teacher:          d.teacher,
		Learner:          d.learner,
		MutationOccurred: d.mutate,
		Mutant:           d.mutant,
	}
	if d.pc {
		n.res.Counters.PCEvents++
		piT, piL, err := n.src.fitnesses(d.teacher, d.learner)
		if err != nil {
			return err
		}
		if resolveAdoption(cfg, n.master, gen, piT, piL) {
			n.pop.Adopt(d.learner, d.teacher)
			ev.Adopted = true
			n.res.Counters.Adoptions++
		}
	}
	if d.mutate {
		n.res.Counters.Mutations++
		n.pop.SetStrategy(d.mutant, mutantStrategy(cfg, n.master, n.pop.Space(), gen))
	}
	n.pt.end(PhaseNatureStep, tn)

	if n.quiet {
		n.gen++
		return nil
	}
	if gen%cfg.SampleStride == 0 {
		mean, err := n.src.meanFitness()
		if err != nil {
			return err
		}
		n.res.MeanFitness.Observe(gen, mean)
		n.res.Cooperation.Observe(gen, n.pop.MeanCooperationProb())
	}
	if cfg.Observer != nil {
		cfg.Observer.Generation(gen, n.pop, ev)
	}
	// Checkpoint on absolute generation numbers, so a resumed run keeps the
	// original cadence instead of one phase-shifted by the restart, and
	// sequential and parallel runs write identical snapshots.
	if cfg.CheckpointEvery > 0 && (gen+1)%cfg.CheckpointEvery == 0 {
		tc := n.pt.begin()
		if err := n.saveSnapshot(gen + 1); err != nil {
			return err
		}
		n.pt.end(PhaseCheckpoint, tc)
		if cfg.EventLog != nil {
			cfg.EventLog.Append(trace.Event{Kind: trace.EventCheckpoint, Generation: gen + 1, Rank: 0})
		}
	}
	n.gen++
	return nil
}
