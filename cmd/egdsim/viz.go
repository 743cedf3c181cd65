package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// runViz reproduces the paper's Fig. 2 population view: it loads a
// checkpoint written by egdsim (or runs a fresh WSLS validation), clusters
// the strategies with Lloyd k-means so prevalent strategies group together,
// and renders the population map — each row an SSet's strategy, each column
// a state, cooperation yellow ('.') and defection blue ('#') — as ASCII
// and/or a PPM image.
//
//	egdsim -ssets 100 -gens 20000 -mixed -error 0.01 -checkpoint pop.ckpt
//	egdsim viz -in pop.ckpt -ppm fig2.ppm
//	egdsim viz -run -ssets 64 -gens 5000        # fresh scaled Fig. 2 run
func runViz(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdsim viz", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "checkpoint file to visualise")
		doRun    = fs.Bool("run", false, "run a fresh scaled Fig. 2 validation instead of loading a checkpoint")
		ssets    = fs.Int("ssets", 64, "SSets for -run")
		gens     = fs.Int("gens", 5000, "generations for -run")
		seed     = fs.Uint64("seed", 1, "seed for -run and clustering")
		k        = fs.Int("k", 8, "k-means cluster count")
		ppmPath  = fs.String("ppm", "", "write the population map as a PPM image to this file")
		cellSize = fs.Int("cell", 4, "PPM pixels per strategy-table cell")
		maxRows  = fs.Int("rows", 64, "ASCII map row cap (0 = all)")
		noSort   = fs.Bool("nosort", false, "do not reorder rows by cluster (initial-population view)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	// Both inputs take the one Fig. 2 readout, core.RunWSLSValidation: a
	// checkpoint is a zero-generation run that starts from its population.
	var cfg sim.Config
	switch {
	case *in != "":
		snap, err := readCheckpoint(*in)
		if err != nil {
			return err
		}
		cfg = sim.Config{Memory: snap.Memory, NumSSets: len(snap.Strategies), InitialStrategies: snap.Strategies, Seed: *seed}
		fmt.Fprintf(out, "loaded checkpoint: generation %d, %d SSets, memory-%d\n",
			snap.Generation, len(snap.Strategies), snap.Memory)
	case *doRun:
		cfg = core.WSLSValidationConfig(*ssets, *gens, *seed)
	default:
		fs.Usage()
		return fmt.Errorf("need -in FILE or -run")
	}
	res, err := core.RunWSLSValidation(cfg, *k)
	if err != nil {
		return err
	}
	if *in == "" {
		fmt.Fprintf(out, "fresh run: %d SSets, %d generations; WSLS fraction %.3f\n",
			*ssets, *gens, res.WSLSFraction)
	}

	// Reorder rows so prevalent strategies band together, the presentation
	// Fig. 2(b) uses.
	sorted := res.Result.Final
	if !*noSort {
		sorted = make([]strategy.Strategy, len(res.Order))
		for i, idx := range res.Order {
			sorted[i] = res.Result.Final[idx]
		}
	}
	fmt.Fprintln(out, dominantLine(res))
	km := res.Clusters
	fmt.Fprintf(out, "cluster sizes: %v (inertia %.3f, %d Lloyd iterations)\n", km.Sizes, km.Inertia, km.Iterations)

	fmt.Fprintln(out, "population map (rows = SSets by cluster, cols = states; '.'=C '#'=D):")
	fmt.Fprint(out, core.AsciiMap(sorted, *maxRows))

	if *ppmPath != "" {
		err := writeFile(*ppmPath, func(w io.Writer) error { return core.WritePPM(w, sorted, *cellSize) })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "image -> %s\n", *ppmPath)
	}
	return nil
}

// dominantLine reports the largest k-means cluster of a readout.
func dominantLine(res *core.WSLSOutcome) string {
	label := res.Dominant.String()
	if res.DominantIsWSLS {
		label += " (WSLS)"
	}
	return fmt.Sprintf("dominant cluster: %.1f%% of SSets, centroid rounds to %s", 100*res.DominantFraction, label)
}
