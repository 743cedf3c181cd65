package sim

import (
	"errors"
	"fmt"
)

// ErrStopped marks a run halted by Config.Control: the engine returns an
// error wrapping it (and the hook's own error) and no Result when the hook
// asks for a stop at a generation boundary. A stopped run is not a fault —
// the restart supervisor returns it unchanged instead of restarting — and
// when a CheckpointSink is configured the engine persists a resume snapshot
// first. That snapshot is the hand-off: Config.ResumeFrom continues the
// trajectory from it bit-identically, series and counters included (the
// contract pause/resume in a job service builds on).
var ErrStopped = errors.New("sim: run stopped by control hook")

// stop finalises a control-initiated stop at the top of generation r.gen:
// it persists the resume snapshot (when a sink is configured) and returns
// the run's stop error.
func (r *parRank) stop(cause error) error {
	if r.cfg.CheckpointSink != nil {
		if err := r.saveSnapshot(r.gen); err != nil {
			return fmt.Errorf("sim: stop snapshot at generation %d: %w (stop cause: %w)", r.gen, err, cause)
		}
	}
	return fmt.Errorf("sim: run stopped at generation %d: %w: %w", r.gen, ErrStopped, cause)
}
