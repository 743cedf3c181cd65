// Command egdscale regenerates the paper's scaling artefacts: the analytic
// tables (I, III, IV, VIII), the modelled Blue Gene projections (Tables
// VI-VII, Figures 3-7), and real strong/weak scaling measurements of the
// parallel engine on this host's cores.
//
// Examples:
//
//	egdscale -all                 # every table and figure, paper calibration
//	egdscale -table 6             # Table VI only
//	egdscale -fig 7 -fullsystem   # Fig. 7 including the 72-rack point
//	egdscale -host-calibrate      # calibrate the model from this host's engine
//	egdscale -measure             # real parallel-engine scaling on this host
//	egdscale -csv                 # emit CSV instead of aligned text
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "egdscale:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdscale", flag.ContinueOnError)
	var (
		all        = fs.Bool("all", false, "print every table and figure")
		table      = fs.Int("table", 0, "print one table (1,3,4,6,7,8)")
		fig        = fs.Int("fig", 0, "print one figure (3,4,5,6,7)")
		fullSystem = fs.Bool("fullsystem", false, "include the 72-rack 294,912-processor point in Fig. 7")
		hostCal    = fs.Bool("host-calibrate", false, "calibrate per-game costs from this host's engine instead of the paper anchor")
		measure    = fs.Bool("measure", false, "measure real parallel-engine scaling on this host")
		mappings   = fs.Bool("mappings", false, "run the rank-to-torus mapping study (paper future work)")
		knee       = fs.Bool("knee", false, "compute the SSets-per-processor efficiency knee (Fig. 5 rule of thumb)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		fig4Procs  = fs.Int("fig4procs", 2048, "processor count for the Fig. 4 runtime column")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cal := perfmodel.PaperCalibration()
	if *hostCal {
		rules := game.DefaultRules()
		hc, err := perfmodel.HostCalibration(rules, 20, true, 1)
		if err != nil {
			return err
		}
		cal = hc.Scaled(perfmodel.BlueGeneL())
		fmt.Fprintf(out, "# host calibration (search engine, scaled to BG/L clock): %v\n", cal.GameSeconds[1:])
	}

	emit := func(t *core.Table, err error) error {
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprintln(out, "# "+t.Title)
			fmt.Fprint(out, t.CSV())
		} else {
			fmt.Fprintln(out, t.Format())
		}
		return nil
	}

	printed := false
	want := func(kind string, n int) bool {
		if *all {
			return true
		}
		switch kind {
		case "table":
			return *table == n
		case "fig":
			return *fig == n
		}
		return false
	}

	if want("table", 1) {
		printed = true
		if err := emit(core.TableI(), nil); err != nil {
			return err
		}
	}
	if want("table", 3) {
		printed = true
		if err := emit(core.TableIII(), nil); err != nil {
			return err
		}
	}
	if want("table", 4) {
		printed = true
		if err := emit(core.TableIV(), nil); err != nil {
			return err
		}
	}
	if want("table", 6) {
		printed = true
		t, err := core.TableVI(cal)
		if err := emit(t, err); err != nil {
			return err
		}
	}
	if want("table", 7) {
		printed = true
		t, err := core.TableVII(cal)
		if err := emit(t, err); err != nil {
			return err
		}
	}
	if want("table", 8) {
		printed = true
		if err := emit(core.TableVIII(core.TableVIISSets(), []int{256, 512, 1024, 2048}), nil); err != nil {
			return err
		}
	}
	if want("fig", 3) {
		printed = true
		t, err := core.Fig3(cal)
		if err := emit(t, err); err != nil {
			return err
		}
	}
	if want("fig", 4) {
		printed = true
		t, err := core.Fig4(cal, *fig4Procs)
		if err := emit(t, err); err != nil {
			return err
		}
	}
	if want("fig", 5) {
		printed = true
		t, err := core.Fig5(cal)
		if err := emit(t, err); err != nil {
			return err
		}
	}
	if want("fig", 6) {
		printed = true
		t, err := core.Fig6(cal)
		if err := emit(t, err); err != nil {
			return err
		}
	}
	if want("fig", 7) {
		printed = true
		t, err := core.Fig7(cal, *fullSystem)
		if err := emit(t, err); err != nil {
			return err
		}
	}

	if *knee || *all {
		printed = true
		t := &core.Table{
			Title:   "Efficiency knee: minimum IPD matches/worker/generation for a >= target-efficiency doubling (Fig. 5 rule of thumb)",
			Columns: []string{"Machine", "Memory", "target 0.90", "target 0.95", "target 0.99"},
		}
		for _, mc := range []perfmodel.Machine{perfmodel.BlueGeneL(), perfmodel.BlueGeneP()} {
			for _, mem := range []int{1, 6} {
				row := []string{mc.Name, fmt.Sprintf("%d", mem)}
				for _, target := range []float64{0.90, 0.95, 0.99} {
					k, err := perfmodel.GamesKnee(mc, cal, mem, core.SmallStudyPCRate, target)
					if err != nil {
						return err
					}
					row = append(row, fmt.Sprintf("%.2f", k))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		if err := emit(t, nil); err != nil {
			return err
		}
	}
	if *mappings || *all {
		printed = true
		t, err := core.MappingStudy()
		if err := emit(t, err); err != nil {
			return err
		}
	}
	if *measure || *all {
		printed = true
		if err := measureHost(out, *csv); err != nil {
			return err
		}
	}
	if !printed {
		fs.Usage()
		return fmt.Errorf("nothing selected; use -all, -table N, -fig N, or -measure")
	}
	return nil
}

// measureHost runs the real parallel engine across rank counts on this
// host and prints measured strong scaling — the non-projected counterpart
// of Figures 3/5/7.
func measureHost(out io.Writer, csv bool) error {
	cfg := sim.DefaultConfig(1, 96)
	cfg.Generations = 20
	cfg.PCRate = core.SmallStudyPCRate
	cfg.FullRecompute = true
	cfg.Rules.Rounds = 100
	cfg.Seed = 1
	rows, err := core.HostStrongScaling(cfg, core.DefaultHostRankCounts())
	if err != nil {
		return err
	}
	t := &core.Table{
		Title:   fmt.Sprintf("Measured strong scaling on this host (%d cores): memory-1, %d SSets, %d generations, full recompute", runtime.NumCPU(), cfg.NumSSets, cfg.Generations),
		Columns: []string{"Ranks", "Workers", "Seconds", "Speedup", "Efficiency"},
	}
	base := rows[0]
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Ranks),
			fmt.Sprintf("%d", r.Ranks-1),
			fmt.Sprintf("%.3f", r.Seconds),
			fmt.Sprintf("%.2f", base.Seconds/r.Seconds),
			fmt.Sprintf("%.3f", perfmodel.Efficiency(base.Ranks-1, base.Seconds, r.Ranks-1, r.Seconds)),
		})
	}
	if csv {
		fmt.Fprintln(out, "# "+t.Title)
		fmt.Fprint(out, t.CSV())
	} else {
		fmt.Fprintln(out, t.Format())
	}
	return nil
}
