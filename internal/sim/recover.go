package sim

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// RunParallelResilient is the fault-tolerant front end to RunParallel: it
// supervises the run, and when a rank fails (an injected fault, a panic, or
// a receive deadline firing on a stalled worker) it restores the latest
// checkpoint and re-runs the remaining generations, up to maxRestarts times
// (none when maxRestarts <= 0). A restart always runs on the original rank
// count; continuing on fewer ranks is live eviction's job (Config.Evict,
// Config.MinRanks). Because every per-generation random stream is keyed by
// the absolute generation, the recovered trajectory is the uninterrupted one:
// final strategies and fitness are bit-identical to a fault-free run (and
// with FullRecompute the counters match exactly too; incremental runs replay
// one generation's games at each resume, which only inflates GamesPlayed).
//
// Recovery is evict-first, restart-second: with cfg.Evict, worker failures
// are recovered live inside RunParallel (heartbeat detection, communicator
// shrink, one-generation replay — see recoverLive) and never reach this
// supervisor. Only failures live eviction cannot absorb — the Nature rank
// dying, or survivors dropping below cfg.MinRanks — surface here and take
// the checkpoint-restart path.
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

		if cur, err = restartConfig(cfg, attempt); err != nil {
			return nil, err
		}
		logEvent(trace.Event{Kind: trace.EventRecovery, Generation: cur.StartGeneration, Rank: failedRank, Attempt: attempt + 1})
	}
}

// restartConfig builds the configuration for the next attempt: the original
// run resumed from the latest checkpoint, or from scratch when none exists.
func restartConfig(cfg Config, attempt int) (Config, error) {
	if cfg.CheckpointSink == nil {
		return cfg, nil
	}
	snap, err := cfg.CheckpointSink.Latest()
	if err != nil {
		return cfg, fmt.Errorf("sim: restart %d: reading checkpoint: %w", attempt+1, err)
	}
	if snap == nil {
		return cfg, nil
	}
	cur := cfg
	// A snapshot from a different run would silently fork the trajectory;
	// ResumeFrom fails fast instead.
	if err := cur.ResumeFrom(snap); err != nil {
		return cfg, fmt.Errorf("sim: restart %d: %w", attempt+1, err)
	}
	// Window policy: finish the original run.
	end := cfg.StartGeneration + cfg.Generations
	if cur.StartGeneration < cfg.StartGeneration || cur.StartGeneration > end {
		return cfg, fmt.Errorf("sim: restart %d: checkpoint generation %d outside run window [%d,%d]",
			attempt+1, cur.StartGeneration, cfg.StartGeneration, end)
	}
	cur.Generations = end - cur.StartGeneration
	return cur, nil
}
