// Package stats provides the two accumulators the simulation uses to
// summarise evolution trajectories: time series with fixed-stride sampling,
// and the strategy-abundance tally behind the "distinct strategies" figure.
package stats

import (
	"fmt"
	"slices"
)

// Point is one kept sample of a series. A snapshot, the service's /result
// document and egd.Result all carry a series as this slice.
type Point struct {
	Generation int     `json:"generation"`
	Value      float64 `json:"value"`
}

// Series is a time series sampled at a fixed generation stride, bounding
// memory for the paper's 10^7-generation runs.
type Series struct {
	stride int
	points []Point
}

// NewSeries creates a series that keeps every stride-th observation
// (stride >= 1), starting from prior: the samples an earlier segment of the
// run already kept, restored from a checkpoint. The series never writes
// into prior's backing array.
func NewSeries(stride int, prior ...Point) (*Series, error) {
	if stride < 1 {
		return nil, fmt.Errorf("stats: series stride %d < 1", stride)
	}
	return &Series{stride: stride, points: slices.Clip(prior)}, nil
}

// Observe records the value at a generation if it falls on the stride.
func (s *Series) Observe(gen int, v float64) {
	if gen%s.stride == 0 {
		s.points = append(s.points, Point{gen, v})
	}
}

// Points returns the kept samples in generation order (nil when none). The
// caller must not modify them.
func (s *Series) Points() []Point { return s.points }

// Last returns the most recent kept pair; ok is false when empty.
func (s *Series) Last() (gen int, v float64, ok bool) {
	if len(s.points) == 0 {
		return 0, 0, false
	}
	p := s.points[len(s.points)-1]
	return p.Generation, p.Value, true
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
