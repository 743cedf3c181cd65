package server

import (
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// behindSink writes a durable job's checkpoints behind the engine. Save
// keeps the snapshot and returns; one writer goroutine per job writes the
// newest pending snapshot through the job's sim.FileSink, and a snapshot
// that is still pending when a newer one arrives is replaced, never written
// (latest wins: every snapshot is the whole run up to its generation, so a
// skipped one costs recency, not correctness). The engine hands over copies
// — Population.Snapshot clones the strategies, the series are flattened
// afresh — so holding a snapshot past Save is safe.
//
// Latest is the synchronous path: it waits until everything handed over is
// on disk and only then reads the file, so a stop snapshot is durable before
// the caller journals the parked state. A failed write is reported by the
// next Save or Latest. The writer exits once nothing is pending, and every
// segment of a job ends in Latest (park) or discard (settle), which wait for
// it: no writer outlives its job's last segment.
type behindSink struct {
	file       sim.CheckpointSink // the job's sim.FileSink
	writes     *metrics.Counter   // snapshots written to disk
	superseded *metrics.Counter   // snapshots replaced before they were written

	mu      sync.Mutex
	idle    sync.Cond // broadcast when the writer goroutine exits
	pending *checkpoint.Snapshot
	writing bool  // a writer goroutine runs; pending != nil implies writing
	err     error // the last failed write, not yet reported
}

func newBehindSink(file sim.CheckpointSink, reg *metrics.Registry) *behindSink {
	b := &behindSink{
		file:       file,
		writes:     reg.Counter("egd_server_checkpoint_writes_wallclock_total"),
		superseded: reg.Counter("egd_server_checkpoint_superseded_wallclock_total"),
	}
	b.idle.L = &b.mu
	return b
}

// Save implements sim.CheckpointSink: it queues s for the writer and
// returns at once, or returns the error of a write that failed since the
// last report.
func (b *behindSink) Save(s *checkpoint.Snapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.err; err != nil {
		b.err = nil
		return err
	}
	if b.pending != nil {
		b.superseded.Inc()
	}
	b.pending = s
	if !b.writing {
		b.writing = true
		go b.write()
	}
	return nil
}

// write is the writer goroutine: it writes the newest pending snapshot
// until none is left, then exits.
func (b *behindSink) write() {
	b.mu.Lock()
	for b.pending != nil {
		s := b.pending
		b.pending = nil
		b.mu.Unlock()
		err := b.file.Save(s)
		b.mu.Lock()
		if err != nil {
			b.err = err
		} else {
			b.writes.Inc()
		}
	}
	b.writing = false
	b.idle.Broadcast()
	b.mu.Unlock()
}

// Latest implements sim.CheckpointSink: it waits for the writer to put
// everything handed over on disk, then reads the file.
func (b *behindSink) Latest() (*checkpoint.Snapshot, error) {
	b.mu.Lock()
	for b.writing {
		b.idle.Wait()
	}
	err := b.err
	b.err = nil
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return b.file.Latest()
}

// discard drops the pending snapshot and waits out a write in flight, so
// nothing reaches the file after it returns and the caller may remove it.
func (b *behindSink) discard() {
	b.mu.Lock()
	b.pending = nil
	for b.writing {
		b.idle.Wait()
	}
	b.mu.Unlock()
}
