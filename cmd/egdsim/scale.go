package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/perfmodel"
)

// numbered returns the N of every catalogue ID of the form kindN.
func numbered(arts []core.Artefact, kind string) (ns []string) {
	for _, a := range arts {
		if n, ok := strings.CutPrefix(a.ID, kind); ok {
			ns = append(ns, n)
		}
	}
	return ns
}

// runScale regenerates the paper's scaling artefacts: the analytic tables
// (I, III, IV, VIII), the modelled Blue Gene projections (Tables VI-VII,
// Figures 3-7), and real strong/weak scaling measurements of the engine on
// this host's cores. What it can print is core.Artefacts(); the flags only
// select entries of that catalogue.
//
//	egdsim scale -all                 # every table and figure, paper calibration
//	egdsim scale -table 6             # Table VI only
//	egdsim scale -fig 7 -fullsystem   # Fig. 7 including the 72-rack point
//	egdsim scale -host-calibrate      # calibrate the model from this host's engine
//	egdsim scale -measure             # real engine scaling on this host
//	egdsim scale -csv                 # emit CSV instead of aligned text
func runScale(args []string, out io.Writer) error {
	arts := core.Artefacts()
	tables, figs := numbered(arts, "table"), numbered(arts, "fig")
	fs := flag.NewFlagSet("egdsim scale", flag.ContinueOnError)
	var (
		all        = fs.Bool("all", false, "print every table and figure")
		table      = fs.Int("table", 0, "print one table ("+strings.Join(tables, ",")+")")
		fig        = fs.Int("fig", 0, "print one figure ("+strings.Join(figs, ",")+")")
		fullSystem = fs.Bool("fullsystem", false, "include the 72-rack 294,912-processor point in Fig. 7")
		hostCal    = fs.Bool("host-calibrate", false, "calibrate per-game costs from this host's engine instead of the paper anchor")
		measure    = fs.Bool("measure", false, "measure real engine scaling on this host")
		knee       = fs.Bool("knee", false, "compute the SSets-per-processor efficiency knee (Fig. 5 rule of thumb)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		fig4Procs  = fs.Int("fig4procs", 2048, "processor count for the Fig. 4 runtime column")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	// Flags to catalogue IDs.
	want := map[string]bool{"knee": *knee, "measure": *measure}
	for _, sel := range []struct {
		kind  string
		valid []string
		n     int
	}{{"table", tables, *table}, {"fig", figs, *fig}} {
		if sel.n == 0 {
			continue
		}
		if !slices.Contains(sel.valid, strconv.Itoa(sel.n)) {
			return fmt.Errorf("no -%s %d: the catalogue has %s", sel.kind, sel.n, strings.Join(sel.valid, ","))
		}
		want[sel.kind+strconv.Itoa(sel.n)] = true
	}

	opts := core.Options{Cal: perfmodel.PaperCalibration(), FullSystem: *fullSystem, Fig4Procs: *fig4Procs}
	if *hostCal {
		hc, err := perfmodel.HostCalibration(game.DefaultRules(), 20, true, 1)
		if err != nil {
			return err
		}
		opts.Cal = hc.Scaled(perfmodel.BlueGeneL())
		fmt.Fprintf(out, "# host calibration (search engine, scaled to BG/L clock): %v\n", opts.Cal.GameSeconds[1:])
	}

	printed := false
	for _, a := range arts {
		if !*all && !want[a.ID] {
			continue
		}
		printed = true
		t, err := a.Build(opts)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprintln(out, "# "+t.Title)
			fmt.Fprint(out, t.CSV())
		} else {
			fmt.Fprintln(out, t.Format())
		}
	}
	if !printed {
		fs.Usage()
		return fmt.Errorf("nothing selected; use -all, -table N, -fig N, or -measure")
	}
	return nil
}
