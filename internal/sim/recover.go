package sim

import (
	"errors"
	"fmt"
)

// RunParallelResilient is the fault-tolerant front end to RunParallel: it
// supervises the run, and when a rank fails (an injected fault, a panic, or
// a receive deadline firing on a stalled worker) the world aborts, and the
// supervisor restarts it through RestartConfig on the same rank count, up
// to maxRestarts times (none when maxRestarts <= 0). Because every
// per-generation random stream is keyed by the absolute generation, and the
// snapshot carries what the resumed table needs, the recovered run returns
// the uninterrupted run's Result: final strategies and fitness, counters
// and both series (GamesPlayed aside on an incremental run, where a resume
// replays every pair once).
//
// The run restarts from cfg.CheckpointSink's latest snapshot, or from the
// start when there is no sink. Restarts records how many recoveries
// occurred; when the budget runs out, the error joins every attempt's
// failure.
func RunParallelResilient(cfg Config, ranks, maxRestarts int) (*Result, error) {
	// Validate up front; any later failure is then a runtime fault and
	// retryable.
	if err := checkParallel(&cfg, ranks); err != nil {
		return nil, err
	}
	cur := cfg
	var failures []error
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
		failures = append(failures, err)
		if attempt >= maxRestarts {
			return nil, fmt.Errorf("sim: giving up after %d restarts: %w", attempt, errors.Join(failures...))
		}
		if cur, err = RestartConfig(cfg); err != nil {
			return nil, fmt.Errorf("sim: restart %d: %w", attempt+1, err)
		}
	}
}

// RestartConfig is the one resume rule, the configuration every supervisor
// (RunParallelResilient in process, egdrun across its fleet, egdserve's
// journal for a job) relaunches cfg's run with: the run resumed from its
// sink's latest snapshot (Config.ResumeFrom), to the end of cfg's window.
// It is cfg itself, a restart from the window's start, when there is no
// sink, no snapshot yet, or none that can be read (a missing, garbled or
// older-version file): that costs a recomputation, never a wrong result. A
// snapshot of another run, or from outside the window, is an error.
//
// Ranks that resumed from different points cannot fork silently: a worker
// refuses a verdict for another generation, and the end of the window
// cross-checks every rank's counters.
func RestartConfig(cfg Config) (Config, error) {
	if cfg.CheckpointSink == nil {
		return cfg, nil
	}
	snap, err := cfg.CheckpointSink.Latest()
	if err != nil || snap == nil {
		return cfg, nil
	}
	cur := cfg
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
