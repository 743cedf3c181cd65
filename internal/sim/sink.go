package sim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// CheckpointSink receives the Nature Agent's periodic snapshots and serves
// the latest one back to the recovery supervisor.
type CheckpointSink interface {
	// Save persists a snapshot; a later Save supersedes earlier ones.
	Save(s *checkpoint.Snapshot) error
	// Latest returns the most recent snapshot, or (nil, nil) when nothing
	// has been saved yet.
	Latest() (*checkpoint.Snapshot, error)
}

// MemorySink keeps the latest snapshot in memory, encoded through the
// checkpoint codec so Save/Latest exercise exactly the bytes a file would
// hold and the caller can never alias live population state. It is the
// supervisor's default sink and safe for concurrent use.
type MemorySink struct {
	mu    sync.Mutex
	data  []byte
	saves int
}

// NewMemorySink creates an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Save implements CheckpointSink.
func (m *MemorySink) Save(s *checkpoint.Snapshot) error {
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, s); err != nil {
		return err
	}
	m.mu.Lock()
	m.data = buf.Bytes()
	m.saves++
	m.mu.Unlock()
	return nil
}

// Latest implements CheckpointSink.
func (m *MemorySink) Latest() (*checkpoint.Snapshot, error) {
	m.mu.Lock()
	data := m.data
	m.mu.Unlock()
	if data == nil {
		return nil, nil
	}
	return checkpoint.Read(bytes.NewReader(data))
}

// Saves returns how many snapshots have been saved.
func (m *MemorySink) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

// FileSink persists the latest snapshot to a single file through
// checkpoint.ReplaceFile: a crash at any point leaves either the previous
// good checkpoint or the new one — never a torn or zero-length file.
type FileSink struct {
	Path string

	// writeFn overrides the snapshot encoder (tests inject failures mid-write
	// to prove a torn write never replaces the previous checkpoint); nil
	// means checkpoint.Write.
	writeFn func(w io.Writer, s *checkpoint.Snapshot) error
}

// Save implements CheckpointSink.
func (f *FileSink) Save(s *checkpoint.Snapshot) error {
	write := f.writeFn
	if write == nil {
		write = checkpoint.Write
	}
	return checkpoint.ReplaceFile(f.Path, func(w io.Writer) error { return write(w, s) })
}

// Latest implements CheckpointSink.
func (f *FileSink) Latest() (*checkpoint.Snapshot, error) {
	file, err := os.Open(f.Path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return checkpoint.Read(file)
}

// newSnapshot records a run at a generation boundary: the strategies after
// gen completed generations, the cumulative counters and both series
// sampled so far, and where cells are kept across generations the
// generation each SSet's cells were played from. Every snapshot the engine
// writes is built here, so each one is the whole run up to gen and
// ResumeFrom needs nothing else.
func newSnapshot(cfg *Config, gen int, strategies []strategy.Strategy, ctr Counters, fit, coop *stats.Series, played []uint64) *checkpoint.Snapshot {
	return &checkpoint.Snapshot{
		Generation:  uint64(gen),
		Seed:        cfg.Seed,
		Memory:      cfg.Memory,
		Strategies:  strategies,
		Counters:    &ctr,
		MeanFitness: fit.Points(),
		Cooperation: coop.Points(),
		Played:      played,
	}
}

// played is what a snapshot after gen completed generations records of
// Population.played: nil unless the run keeps cells across generations
// (keptAcrossGenerations), and gen for an SSet whose change the next
// refresh plays.
func (r *parRank) played(gen int) []uint64 {
	if !keptAcrossGenerations(r.cfg) {
		return nil
	}
	out := make([]uint64, r.pop.Size())
	for i := range out {
		out[i] = uint64(r.pop.playedAt(i, gen))
	}
	return out
}

// saveSnapshot persists the Nature Agent's state after gen completed
// generations into the configured sink. A snapshot at the window's end also
// carries the run's FinalFitness: a restart from it runs no generation, so
// its table never holds the last refresh that FinalFitness folds.
func (r *parRank) saveSnapshot(gen int) error {
	snap := newSnapshot(r.cfg, gen, r.pop.Snapshot(), r.res.Counters, r.res.MeanFitness, r.res.Cooperation, r.played(gen))
	if gen == r.end {
		snap.Fitness = r.finalFitness()
	}
	if err := r.cfg.CheckpointSink.Save(snap); err != nil {
		return fmt.Errorf("sim: checkpoint at generation %d: %w", gen, err)
	}
	return nil
}

// priorRun is the part of a snapshot that has no exported Config field: the
// counters and series of the generations before StartGeneration, which the
// Nature Agent starts its Result from, the generation each SSet's cells
// were played from, which the first refresh plays them from again, and the
// fitness a window without a refresh reports as FinalFitness.
type priorRun struct {
	counters      Counters
	fitness, coop []stats.Point
	played        []int
	final         []float64
}

// ResumeFrom points the configuration at snap — newSnapshot's inverse and
// the one way back into a run: the population restarts from the snapshot's
// strategies, at its generation, with its cumulative counters and sampled
// series, so the run continues the snapshot's trajectory and returns the
// Result the uninterrupted run would have (every random stream is keyed by
// seed and absolute generation, and a run that keeps cells across
// generations replays each from the generation the snapshot records for it).
// A snapshot of a different run — another seed, memory depth or SSet count —
// would silently fork the trajectory and is refused, as is a series that is
// not strictly ascending below the snapshot generation or a played
// generation past it (the values arrive from a file), and so is a snapshot
// without played generations for a run that keeps cells across generations
// (noisy or mixed play without FullRecompute), whose cells the resumed run
// could not replay from their own generations.
//
// Call it on the run's own Config, before narrowing Generations: an
// automatic SampleStride is pinned here from the window the receiver still
// describes, so the resumed segment samples on the original schedule.
// Generations itself is left alone — whether the resumed run finishes the
// original window or runs further is the caller's policy.
func (c *Config) ResumeFrom(snap *checkpoint.Snapshot) error {
	if snap.Seed != c.Seed || snap.Memory != c.Memory || len(snap.Strategies) != c.NumSSets {
		return fmt.Errorf("sim: checkpoint (seed %d, memory %d, %d SSets) does not match run (seed %d, memory %d, %d SSets)",
			snap.Seed, snap.Memory, len(snap.Strategies), c.Seed, c.Memory, c.NumSSets)
	}
	for _, pts := range [][]stats.Point{snap.MeanFitness, snap.Cooperation} {
		for i, p := range pts {
			if uint64(p.Generation) >= snap.Generation || (i > 0 && p.Generation <= pts[i-1].Generation) {
				return fmt.Errorf("sim: checkpoint series point %d (generation %d) is not ascending below snapshot generation %d",
					i, p.Generation, snap.Generation)
			}
		}
	}
	resumed := *c
	resumed.InitialStrategies = snap.Strategies
	switch {
	case len(snap.Played) == 0 && keptAcrossGenerations(&resumed):
		return errors.New("sim: checkpoint has no played-generations block, which a run that keeps cells across generations resumes from")
	case len(snap.Played) != 0 && len(snap.Played) != len(snap.Strategies):
		return fmt.Errorf("sim: checkpoint records %d played generations for %d SSets", len(snap.Played), len(snap.Strategies))
	}
	var played []int
	for i, g := range snap.Played {
		if g > snap.Generation {
			return fmt.Errorf("sim: checkpoint SSet %d played at generation %d, past snapshot generation %d", i, g, snap.Generation)
		}
		played = append(played, int(g))
	}
	if c.SampleStride == 0 {
		c.SampleStride = autoStride(c.Generations)
	}
	c.InitialStrategies = snap.Strategies
	c.StartGeneration = int(snap.Generation)
	c.prior = priorRun{fitness: snap.MeanFitness, coop: snap.Cooperation, played: played, final: snap.Fitness}
	if snap.Counters != nil {
		c.prior.counters = *snap.Counters
	}
	return nil
}
