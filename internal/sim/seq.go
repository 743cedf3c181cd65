package sim

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// RunSequential executes the full simulation on one thread: the Nature
// Agent's generation (nature.generation) over a local fitness source that
// plays every cell its payoff table lacks itself. It is the reference
// implementation: RunParallel must reproduce its trajectory exactly for any
// rank count.
func RunSequential(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
	n := newNature(&cfg)
	local := &localSource{nature: n, payoffTable: newPayoffTable(&cfg)}
	n.src = local
	for n.gen < n.end {
		if err := n.generation(); err != nil {
			return nil, err
		}
	}

	res := n.res
	res.Ranks = 1
	res.Final, res.played = n.pop.Snapshot(), n.played(n.end)
	res.FinalFitness = local.finalFitness()
	res.Elapsed = time.Since(start) //egdlint:allow determinism elapsed-time metadata, not part of the trajectory
	if cfg.Metrics {
		snap := n.pt.snapshot(0)
		snap.Cache = local.cacheStats(n.pop)
		res.Metrics = &RunMetrics{Phases: []RankPhaseSnapshot{snap}}
		if cfg.EventLog != nil {
			cfg.EventLog.Append(trace.Event{Kind: trace.EventMetrics, Generation: n.end, Rank: 0,
				Detail: fmt.Sprintf("games=%d", res.Counters.GamesPlayed)})
		}
	}
	return res, nil
}

// localSource is the sequential engine's fitness source: the payoffTable
// every parallel rank holds, filled by playing every listed cell itself, in
// list order. Nobody else holds state, so a halt has nobody to reach.
type localSource struct {
	*nature
	payoffTable
}

func (l *localSource) refresh(gen int) (uint64, error) {
	tg := l.pt.begin()
	scheduled := l.listMissing(l.cfg, l.pop)
	vals, err := l.playCells(l.cfg, l.pop, l.master, gen, l.cells)
	if err != nil {
		return scheduled, err
	}
	l.install(l.cells, vals)
	l.pt.end(PhaseGamePlay, tg)
	return scheduled, nil
}

func (*localSource) halt() {}
