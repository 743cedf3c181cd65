package sim

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// RunSequential executes the full simulation on one thread: the Nature
// Agent's generation (nature.generation) over a local fitness source that
// plays every pair itself. It is the reference implementation: RunParallel
// must reproduce its trajectory exactly for any rank count.
func RunSequential(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
	n := newNature(&cfg)
	local := &localSource{
		nature: n,
		kern:   newPayoffKernel(&cfg),
		block:  newPairBlock(cfg.NumSSets),
	}
	n.src = local
	for n.gen < n.end {
		if err := n.generation(); err != nil {
			return nil, err
		}
	}

	res := n.res
	res.Ranks = 1
	res.Final = n.pop.Snapshot()
	res.FinalFitness = local.block.fitnesses()
	res.Elapsed = time.Since(start) //egdlint:allow determinism elapsed-time metadata, not part of the trajectory
	if cfg.Metrics {
		snap := n.pt.snapshot(0)
		snap.Cache = local.kern.cacheStats(n.pop)
		res.Metrics = &RunMetrics{Phases: []RankPhaseSnapshot{snap}}
		if cfg.EventLog != nil {
			cfg.EventLog.Append(trace.Event{Kind: trace.EventMetrics, Generation: n.end, Rank: 0,
				Detail: fmt.Sprintf("games=%d", res.Counters.GamesPlayed)})
		}
	}
	return res, nil
}

// localSource is the sequential engine's fitness source: one pairBlock
// covering the whole pair list, refreshed in place. Nobody else holds
// state, so a halt has nobody to reach.
type localSource struct {
	*nature
	kern  *payoffKernel
	block *pairBlock
}

func (l *localSource) refresh(gen int) (uint64, error) {
	tg := l.pt.begin()
	played, err := l.block.refresh(l.cfg, l.pop, l.master, l.kern, gen, l.cfg.FullRecompute)
	if err == nil {
		l.pt.end(PhaseGamePlay, tg)
	}
	return played, err
}

func (l *localSource) fitnesses(teacher, learner int) (float64, float64, error) {
	return l.block.fitness(teacher), l.block.fitness(learner), nil
}

func (*localSource) halt() {}

// meanFitness is the mean of the per-SSet fitnesses (under the standard
// payoff, 1 = all-defect to 3 = full cooperation).
func (l *localSource) meanFitness() (float64, error) {
	total := 0.0
	for i := 0; i < l.block.s; i++ {
		total += l.block.fitness(i)
	}
	return total / float64(l.block.s), nil
}
