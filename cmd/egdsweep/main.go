// Command egdsweep runs a grid of simulations over parameter ranges and
// prints one CSV row per cell — the parameter-study driver for questions
// like "at which error rate does cooperation collapse" or "which selection
// intensity lets WSLS emerge".
//
// Parameter flags take comma-separated value lists; the sweep is their
// cartesian product. Example:
//
//	egdsweep -ssets 32 -gens 50000 -mixed -fermi \
//	         -beta 1,3,10 -mu 0.01,0.05 -error 0.005,0.01,0.02 -seeds 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "egdsweep:", err)
		os.Exit(1)
	}
}

func run() error {
	// The base run is the spec every command shares (README.md "Run
	// parameters"); the three swept parameters take lists here.
	base := sim.DefaultSpec()
	base.SSets, base.Generations = 32, 10000
	base.BindFlags(flag.CommandLine)
	var (
		betas   = listFlag("beta")
		mus     = listFlag("mu")
		errs    = listFlag("error")
		seeds   = flag.Int("seeds", 1, "number of seeds per parameter combination, counting up from -seed")
		workers = flag.Int("workers", 0, "concurrent cells (0 = NumCPU)")
	)
	flag.Parse()
	cfg, err := base.Config()
	if err != nil {
		return err
	}

	seedVals := make([]string, *seeds)
	for i := range seedVals {
		seedVals[i] = strconv.FormatUint(base.Seed+uint64(i), 10)
	}
	grid, err := sweep.Cross(cfg,
		[]string{"beta", "mu", "error", "seed"},
		[][]string{split(*betas), split(*mus), split(*errs), seedVals},
		applyParam)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "egdsweep: %d cells x %d generations\n", grid.Size(), base.Generations)
	outcomes := grid.Run(*workers)
	fmt.Print(sweep.CSV(outcomes))
	return nil
}

// listFlag turns one of the spec's flags into a sweep axis: same name and
// default, but the value is a comma-separated list applied cell by cell.
func listFlag(name string) *string {
	f := flag.Lookup(name)
	v := listValue(f.DefValue)
	f.Value = &v
	f.Usage = "comma-separated values: " + f.Usage
	return (*string)(&v)
}

type listValue string

func (l *listValue) String() string     { return string(*l) }
func (l *listValue) Set(s string) error { *l = listValue(s); return nil }

func split(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func applyParam(cfg *sim.Config, name, value string) (err error) {
	rates := map[string]*float64{"beta": &cfg.Beta, "mu": &cfg.Mu, "error": &cfg.Rules.ErrorRate}
	switch {
	case name == "seed":
		cfg.Seed, err = strconv.ParseUint(value, 10, 64)
	case rates[name] != nil:
		*rates[name], err = strconv.ParseFloat(value, 64)
	default:
		err = fmt.Errorf("unknown parameter %q", name)
	}
	return err
}
