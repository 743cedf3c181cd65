package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// runSweep runs a grid of simulations over parameter ranges and prints one
// CSV row per cell — the parameter-study driver for questions like "at which
// error rate does cooperation collapse" or "which selection intensity lets
// WSLS emerge".
//
// The swept flags take comma-separated value lists; the sweep is their
// cartesian product:
//
//	egdsim sweep -ssets 32 -gens 50000 -mixed -fermi \
//	             -beta 1,3,10 -mu 0.01,0.05 -error 0.005,0.01,0.02 -seeds 3
func runSweep(args []string, out io.Writer) error {
	// The base run is the spec every command shares (README.md "Run
	// parameters"); the three swept parameters take lists here.
	fs := flag.NewFlagSet("egdsim sweep", flag.ContinueOnError)
	base := sim.DefaultSpec()
	base.SSets, base.Generations = 32, 10000
	base.BindFlags(fs)
	var (
		betas   = listFlag(fs, "beta")
		mus     = listFlag(fs, "mu")
		errs    = listFlag(fs, "error")
		seeds   = fs.Int("seeds", 1, "number of seeds per parameter combination, counting up from -seed")
		workers = fs.Int("workers", 0, "concurrent cells (0 = NumCPU)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d out of range: need at least 1", *seeds)
	}
	cfg, err := base.Config()
	if err != nil {
		return err
	}
	betaL, err1 := levels("beta", *betas)
	muL, err2 := levels("mu", *mus)
	errL, err3 := levels("error", *errs)
	if err := errors.Join(err1, err2, err3); err != nil {
		return err
	}

	cells := grid(cfg, *seeds, betaL, muL, errL)
	fmt.Fprintf(os.Stderr, "egdsim sweep: %d cells x %d generations\n", len(cells), base.Generations)
	play(cells, *workers)
	_, err = io.WriteString(out, table(cells).CSV())
	return err
}

// cell is one grid point: the swept values as typed, the run they select,
// and its outcome. A failed run leaves its error in runErr and the metrics
// zero.
type cell struct {
	beta, mu, errRate string
	cfg               sim.Config

	meanFitness, cooperation, wslsFraction, seconds float64
	distinct                                        int
	runErr                                          error
}

// grid is one cell per combination of the swept values and seeds counting
// up from cfg.Seed, in flag order with the seed fastest; each cell's run is
// cfg with its values applied.
func grid(cfg sim.Config, seeds int, betaL, muL, errL []level) []cell {
	var cells []cell
	for _, b := range betaL {
		for _, m := range muL {
			for _, e := range errL {
				for i := range seeds {
					c := cell{beta: b.label, mu: m.label, errRate: e.label, cfg: cfg}
					c.cfg.Beta, c.cfg.Mu, c.cfg.Rules.ErrorRate, c.cfg.Seed = b.v, m.v, e.v, cfg.Seed+uint64(i)
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// play runs every cell, at most workers at once (0 selects NumCPU). A
// failed run is recorded in its cell rather than ending the sweep.
func play(cells []cell, workers int) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range cells {
		sem <- struct{}{}
		wg.Add(1)
		go func(c *cell) {
			defer func() { <-sem; wg.Done() }()
			c.run()
		}(&cells[i])
	}
	wg.Wait()
}

func (c *cell) run() {
	res, err := sim.RunSequential(c.cfg)
	if err != nil {
		c.runErr = err
		return
	}
	c.wslsFraction = res.FractionNear(strategy.WSLS(strategy.NewSpace(c.cfg.Memory)))
	c.distinct = res.FinalAbundance().Distinct()
	c.seconds = res.Elapsed.Seconds()
	if _, v, ok := res.MeanFitness.Last(); ok {
		c.meanFitness = v
	}
	if _, v, ok := res.Cooperation.Last(); ok {
		c.cooperation = v
	}
}

// table is one row per cell: the swept parameters in name order, then the
// metrics. A failed run's message is run_error — "error" is the swept error
// rate's column.
func table(cells []cell) *core.Table {
	t := &core.Table{Columns: []string{"beta", "error", "mu", "seed",
		"mean_fitness", "cooperation", "wsls_fraction", "distinct", "seconds", "run_error"}}
	for _, c := range cells {
		runErr := ""
		if c.runErr != nil {
			runErr = c.runErr.Error()
		}
		t.Rows = append(t.Rows, []string{c.beta, c.errRate, c.mu, strconv.FormatUint(c.cfg.Seed, 10),
			fmt.Sprintf("%.6g", c.meanFitness), fmt.Sprintf("%.6g", c.cooperation), fmt.Sprintf("%.6g", c.wslsFraction),
			strconv.Itoa(c.distinct), fmt.Sprintf("%.3f", c.seconds), runErr})
	}
	return t
}

// listFlag turns one of the spec's flags into a sweep axis: same name and
// default, but the value is a comma-separated list applied cell by cell.
func listFlag(fs *flag.FlagSet, name string) *string {
	f := fs.Lookup(name)
	v := listValue(f.DefValue)
	f.Value = &v
	f.Usage = "comma-separated values: " + f.Usage
	return (*string)(&v)
}

type listValue string

func (l *listValue) String() string     { return string(*l) }
func (l *listValue) Set(s string) error { *l = listValue(s); return nil }

func split(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
}

// level is one value of a swept axis: as typed, for the CSV, and parsed.
type level struct {
	label string
	v     float64
}

// levels parses the value list of the swept flag name.
func levels(name, list string) ([]level, error) {
	var ls []level
	for _, s := range split(list) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		ls = append(ls, level{s, v})
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("-%s: empty value list", name)
	}
	return ls, nil
}
