package sim

import (
	"repro/internal/rng"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Derivation keys for the independent random streams of a run. Every rank
// derives the same streams from the master seed, which is what makes the
// trajectory the same at every rank count.
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
// stream is derived per generation, so the plan is independent of the rank
// layout.
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
// the mutant identical on every rank.
func mutantStrategy(cfg *Config, master *rng.Source, sp strategy.Space, gen int) strategy.Strategy {
	src := master.Derive(keyMutant, uint64(gen))
	return randomStrategy(cfg.Kind, sp, src)
}

// generation runs generation r.gen — the paper's Nature Agent pseudo-code,
// which every rank executes over its own table — and advances r.gen on
// success. Every random draw derives from (seed, gen), and fitness is an
// SSet's row folded in column order from cells whose values do not depend
// on who played them, so the trajectory is the same at every rank count.
func (r *parRank) generation() error {
	cfg, gen := r.cfg, r.gen
	// Control poll at the generation boundary (pause/cancel for a hosting
	// service), and then the resume snapshot is persisted. The other ranks
	// are already on their games: Nature goes quiet and tells them at their
	// next meeting (run). A world of one has nobody to tell and stops here.
	if cfg.Control != nil && !r.quiet {
		if cause := cfg.Control(gen); cause != nil {
			r.quiet = r.c.Size() > 1
			return r.stop(cause)
		}
	}

	// Game dynamics: every SSet's payoffs are brought up to date.
	played, err := r.refresh(gen)
	r.res.Counters.GamesPlayed += played
	if err != nil {
		return err
	}
	r.pop.clearDirty(gen)

	// Population dynamics: the PC learning event and the mutation event.
	tn := r.pt.begin()
	d := natureDecision(cfg, r.master, gen)
	ev := Events{
		PCOccurred:       d.pc,
		Teacher:          d.teacher,
		Learner:          d.learner,
		MutationOccurred: d.mutate,
		Mutant:           d.mutant,
	}
	if d.pc {
		r.res.Counters.PCEvents++
		if resolveAdoption(cfg, r.master, gen, r.fitness(d.teacher), r.fitness(d.learner)) {
			r.pop.Adopt(d.learner, d.teacher)
			ev.Adopted = true
			r.res.Counters.Adoptions++
		}
	}
	if d.mutate {
		r.res.Counters.Mutations++
		r.pop.SetStrategy(d.mutant, mutantStrategy(cfg, r.master, r.pop.Space(), gen))
	}
	r.pt.end(PhaseNatureStep, tn)

	if r.quiet {
		r.gen++
		return nil
	}
	if gen%cfg.SampleStride == 0 {
		r.res.MeanFitness.Observe(gen, r.meanFitness())
		r.res.Cooperation.Observe(gen, r.pop.MeanCooperationProb())
	}
	if cfg.Observer != nil {
		cfg.Observer.Generation(gen, r.pop, ev)
	}
	// Checkpoint on absolute generation numbers, so a resumed run keeps the
	// original cadence instead of one phase-shifted by the restart, and runs
	// on any rank count write identical snapshots.
	if cfg.CheckpointEvery > 0 && (gen+1)%cfg.CheckpointEvery == 0 {
		tc := r.pt.begin()
		if err := r.saveSnapshot(gen + 1); err != nil {
			return err
		}
		r.pt.end(PhaseCheckpoint, tc)
		if cfg.EventLog != nil {
			cfg.EventLog.Append(trace.Event{Kind: trace.EventCheckpoint, Generation: gen + 1, Rank: 0})
		}
	}
	r.gen++
	return nil
}
