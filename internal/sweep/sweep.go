// Package sweep runs grids of simulation configurations concurrently and
// collects outcome metrics — the workhorse behind parameter studies such
// as "cooperation versus error rate" or "WSLS emergence versus selection
// intensity" that domain scientists run on frameworks like the paper's.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
	"repro/internal/strategy"
)

// Point is one grid cell: a named parameter assignment and its config.
type Point struct {
	// Labels identifies the cell, e.g. {"beta": "1", "mu": "0.05"}.
	Labels map[string]string
	// Config is the fully specified simulation configuration.
	Config sim.Config
}

// Outcome is the measured result of one grid cell.
type Outcome struct {
	Point Point
	// MeanFitness is the final sampled population mean fitness.
	MeanFitness float64
	// Cooperation is the final sampled mean cooperation probability.
	Cooperation float64
	// WSLSFraction is the share of final SSets rounding to WSLS.
	WSLSFraction float64
	// Distinct is the number of distinct final strategies.
	Distinct int
	// Seconds is the run's wall-clock time.
	Seconds float64
	// Err records a failed run; other fields are zero when non-nil.
	Err error
}

// Grid is an immutable set of points to run.
type Grid struct {
	points []Point
}

// Size returns the number of cells.
func (g *Grid) Size() int { return len(g.points) }

// Cross builds the cartesian product of parameter values, applying each
// combination to a copy of base via apply. Parameter order follows names.
func Cross(base sim.Config, names []string, values [][]string, apply func(cfg *sim.Config, name, value string) error) (*Grid, error) {
	if len(names) != len(values) {
		return nil, fmt.Errorf("sweep: %d names for %d value lists", len(names), len(values))
	}
	for i, vs := range values {
		if len(vs) == 0 {
			return nil, fmt.Errorf("sweep: empty value list for %q", names[i])
		}
	}
	var points []Point
	idx := make([]int, len(names))
	for {
		cfg := base
		labels := make(map[string]string, len(names))
		for d, name := range names {
			v := values[d][idx[d]]
			labels[name] = v
			if err := apply(&cfg, name, v); err != nil {
				return nil, fmt.Errorf("sweep: applying %s=%s: %w", name, v, err)
			}
		}
		points = append(points, Point{Labels: labels, Config: cfg})
		// Odometer increment.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(values[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	return &Grid{points: points}, nil
}

// Run executes every cell, at most workers concurrently (0 selects
// NumCPU), and returns outcomes in grid order. Individual run failures are
// recorded in the outcome rather than aborting the sweep.
func (g *Grid) Run(workers int) []Outcome {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	out := make([]Outcome, len(g.points))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, p := range g.points {
		wg.Add(1)
		go func(i int, p Point) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = runPoint(p)
		}(i, p)
	}
	wg.Wait()
	return out
}

func runPoint(p Point) Outcome {
	res, err := sim.RunSequential(p.Config)
	if err != nil {
		return Outcome{Point: p, Err: err}
	}
	o := Outcome{
		Point:        p,
		WSLSFraction: res.FractionNear(strategy.WSLS(strategy.NewSpace(p.Config.Memory))),
		Distinct:     res.FinalAbundance().Distinct(),
		Seconds:      res.Elapsed.Seconds(),
	}
	if _, v, ok := res.MeanFitness.Last(); ok {
		o.MeanFitness = v
	}
	if _, v, ok := res.Cooperation.Last(); ok {
		o.Cooperation = v
	}
	return o
}
