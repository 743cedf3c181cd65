package sim

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// RunParallelResilient is the fault-tolerant front end to RunParallel: it
// supervises the run, and when a rank fails (an injected fault, a panic, or
// a receive deadline firing on a stalled worker) the world aborts, and the
// supervisor restarts it from the latest checkpoint (RestartConfig) on the
// same rank count, up to maxRestarts times (none when maxRestarts <= 0).
// Restarting from the latest snapshot is the repo's one recovery path: egdrun
// drives the same RestartConfig across a fleet of processes, and egdserve's
// journal resumes a job from its durable snapshot the same way. Because every
// per-generation random stream is keyed by the absolute generation, and the
// snapshot carries what the resumed table needs, the recovered run returns
// the uninterrupted run's Result: final strategies and fitness, counters
// and both series (GamesPlayed aside on an incremental run, where a resume
// replays every pair once).
//
// When cfg.CheckpointEvery > 0 and no sink is configured, an in-memory sink
// is installed automatically. With checkpointing disabled, recovery restarts
// from the beginning — correct, but all progress is lost.
//
// The returned Result is the whole logical run's — counters and sampled
// series cover every generation, restarts or not. Restarts records how many
// recoveries occurred.
func RunParallelResilient(cfg Config, ranks, maxRestarts int) (*Result, error) {
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		cfg.CheckpointSink = NewMemorySink()
	}
	// Validate up front; any later failure is then a runtime fault and
	// retryable.
	if err := checkParallel(&cfg, ranks); err != nil {
		return nil, err
	}

	logEvent := func(e trace.Event) {
		if cfg.EventLog != nil {
			cfg.EventLog.Append(e)
		}
	}

	cur := cfg
	for attempt := 0; ; attempt++ {
		res, err := RunParallel(cur, ranks)
		if err == nil {
			res.Restarts = attempt
			return res, nil
		}
		// A control-hook stop is a requested outcome, not a fault: return it
		// unchanged so the caller (a pausing job service, say) sees
		// ErrStopped instead of the supervisor re-running the stopped work.
		if errors.Is(err, ErrStopped) {
			return nil, err
		}

		failedRank := -1
		var rf *mpi.RankFailedError
		if errors.As(err, &rf) {
			failedRank = rf.Rank
		}
		logEvent(trace.Event{
			Kind: trace.EventFault, Generation: -1, Rank: failedRank,
			Attempt: attempt, Detail: err.Error(),
		})
		if attempt >= maxRestarts {
			logEvent(trace.Event{Kind: trace.EventGiveUp, Generation: -1, Rank: failedRank, Attempt: attempt})
			return nil, fmt.Errorf("sim: giving up after %d restarts: %w", attempt, err)
		}

		if cur, err = RestartConfig(cfg); err != nil {
			return nil, fmt.Errorf("sim: restart %d: %w", attempt+1, err)
		}
		logEvent(trace.Event{Kind: trace.EventRecovery, Generation: cur.StartGeneration, Rank: failedRank, Attempt: attempt + 1})
	}
}

// RestartConfig is the configuration a supervisor relaunches cfg's run with
// after a failure: the run resumed from its sink's latest snapshot
// (Config.ResumeFrom), to the end of cfg's window; cfg itself, a restart
// from scratch, when there is no sink or no snapshot yet. A snapshot of
// another run, or from outside the window, is an error.
func RestartConfig(cfg Config) (Config, error) {
	if cfg.CheckpointSink == nil {
		return cfg, nil
	}
	snap, err := cfg.CheckpointSink.Latest()
	if err != nil {
		return cfg, fmt.Errorf("reading checkpoint: %w", err)
	}
	if snap == nil {
		return cfg, nil
	}
	cur := cfg
	// A snapshot from a different run would silently fork the trajectory;
	// ResumeFrom fails fast instead.
	if err := cur.ResumeFrom(snap); err != nil {
		return cfg, err
	}
	// Window policy: finish the original run.
	end := cfg.StartGeneration + cfg.Generations
	if cur.StartGeneration < cfg.StartGeneration || cur.StartGeneration > end {
		return cfg, fmt.Errorf("checkpoint generation %d outside run window [%d,%d]",
			cur.StartGeneration, cfg.StartGeneration, end)
	}
	cur.Generations = end - cur.StartGeneration
	return cur, nil
}
