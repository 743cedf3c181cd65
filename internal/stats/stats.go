// Package stats provides the two accumulators the simulation uses to
// summarise evolution trajectories: time series with fixed-stride sampling,
// and the strategy-abundance tally behind the "distinct strategies" figure.
package stats

import "fmt"

// Series is a time series sampled at a fixed generation stride, bounding
// memory for the paper's 10^7-generation runs.
type Series struct {
	stride int
	gens   []int
	vals   []float64
}

// NewSeries creates a series that keeps every stride-th observation
// (stride >= 1).
func NewSeries(stride int) (*Series, error) {
	if stride < 1 {
		return nil, fmt.Errorf("stats: series stride %d < 1", stride)
	}
	return &Series{stride: stride}, nil
}

// Observe records the value at a generation if it falls on the stride.
func (s *Series) Observe(gen int, v float64) {
	if gen%s.stride == 0 {
		s.Append(gen, v)
	}
}

// Append records a sample unconditionally — the way back in for samples an
// earlier segment of the run already kept (restored from a checkpoint).
func (s *Series) Append(gen int, v float64) {
	s.gens = append(s.gens, gen)
	s.vals = append(s.vals, v)
}

// Len returns the number of kept samples.
func (s *Series) Len() int { return len(s.gens) }

// At returns the i-th kept (generation, value) pair.
func (s *Series) At(i int) (int, float64) { return s.gens[i], s.vals[i] }

// Last returns the most recent kept pair; ok is false when empty.
func (s *Series) Last() (gen int, v float64, ok bool) {
	if len(s.gens) == 0 {
		return 0, 0, false
	}
	return s.gens[len(s.gens)-1], s.vals[len(s.vals)-1], true
}

// Abundance tracks how many SSets hold each distinct strategy, keyed by the
// strategy's content fingerprint, to report how many distinct strategies a
// population has collapsed to.
type Abundance struct {
	counts map[uint64]int
}

// NewAbundance returns an empty tracker.
func NewAbundance() *Abundance {
	return &Abundance{counts: make(map[uint64]int)}
}

// Add counts one SSet holding the strategy with the given fingerprint.
func (a *Abundance) Add(fingerprint uint64) {
	a.counts[fingerprint]++
}

// Distinct returns the number of distinct strategies present.
func (a *Abundance) Distinct() int { return len(a.counts) }
