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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "egdsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	// The base run is the spec every command shares (README.md "Run
	// parameters"); the three swept parameters take lists here.
	fs := flag.NewFlagSet("egdsweep", flag.ContinueOnError)
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d out of range: need at least 1", *seeds)
	}
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
	_, err = io.WriteString(out, table(grid.Run(*workers)).CSV())
	return err
}

// table is one row per cell: the swept parameters in name order, then the
// metrics. A failed run's message is run_error — "error" is the swept error
// rate's column.
func table(outcomes []sweep.Outcome) *core.Table {
	t := &core.Table{Columns: []string{"beta", "error", "mu", "seed",
		"mean_fitness", "cooperation", "wsls_fraction", "distinct", "seconds", "run_error"}}
	for _, o := range outcomes {
		l, runErr := o.Point.Labels, ""
		if o.Err != nil {
			runErr = o.Err.Error()
		}
		t.Rows = append(t.Rows, []string{l["beta"], l["error"], l["mu"], l["seed"],
			fmt.Sprintf("%.6g", o.MeanFitness), fmt.Sprintf("%.6g", o.Cooperation), fmt.Sprintf("%.6g", o.WSLSFraction),
			strconv.Itoa(o.Distinct), fmt.Sprintf("%.3f", o.Seconds), runErr})
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
