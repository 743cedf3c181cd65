// Command egdsim runs one evolutionary game dynamics simulation and reports
// the outcome: the final strategy distribution, the WSLS fraction, fitness
// and cooperation trajectories, and (optionally) a per-generation CSV trace
// and a binary checkpoint of the final population.
//
// Examples:
//
//	egdsim -memory 1 -ssets 64 -gens 5000
//	egdsim -memory 1 -ssets 100 -gens 20000 -mixed -error 0.01 -beta 10
//	egdsim -memory 6 -ssets 32 -gens 100 -ranks 8 -full
//	egdsim -ssets 32 -gens 2000 -ranks 4 -checkpoint-every 100 \
//	    -checkpoint-file run.ckpt -inject-fault rank=2,after=500
//	egdsim -ssets 32 -gens 1000 -ranks 4 -metrics run-metrics.json -pprof-cpu cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "egdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdsim", flag.ContinueOnError)
	// The run itself is a sim.Spec and the failure handling a
	// sim.FaultTolerance — the flag sets egdrun shares (README.md "Run
	// parameters"); the rest steer this process's engine choice and outputs.
	spec := sim.DefaultSpec()
	spec.BindFlags(fs)
	var ft sim.FaultTolerance
	ft.BindFlags(fs)
	fs.IntVar(&spec.Ranks, "ranks", 1, "ranks of the engine's world: rank 0 is Nature, and every rank plays a share of the games (1 = the reference)")
	var (
		csvPath   = fs.String("trace", "", "write per-generation CSV trace to this file")
		ckpt      = fs.String("checkpoint", "", "write final population checkpoint to this file")
		resume    = fs.String("resume", "", "resume from a checkpoint file (continues its trajectory)")
		ckptFile  = fs.String("checkpoint-file", "", "recovery checkpoint path for -checkpoint-every (default: the -checkpoint path)")
		mapRows   = fs.Int("map", 0, "print an ASCII strategy map of up to this many SSets")
		top       = fs.Int("top", 5, "report the top-k most abundant final strategies")
		metricsTo = fs.String("metrics", "", "collect run metrics (phase timers, per-rank comm accounting) and write a snapshot to this file")
		metricsFm = fs.String("metrics-format", "json", "metrics snapshot format: json or prom (Prometheus text exposition)")
		pprofCPU  = fs.String("pprof-cpu", "", "write a CPU profile of the run to this file")
		pprofMem  = fs.String("pprof-mem", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if spec.Ranks < 2 && (ft.InjectFault != "" || ft.WorkerTimeout > 0) {
		return fmt.Errorf("-inject-fault and -worker-timeout need a rank to fail or stall besides Nature (-ranks >= 2)")
	}
	if *metricsFm != "json" && *metricsFm != "prom" {
		return fmt.Errorf("-metrics-format must be json or prom, got %q", *metricsFm)
	}
	spec.Metrics = *metricsTo != ""

	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			return err
		}
		snap, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		// The run continues the checkpoint's trajectory — counters and
		// series included — so its seed wins over -seed; memory and SSet
		// count must match the flags. Window policy: -gens more generations
		// from the checkpoint.
		cfg.Seed = snap.Seed
		if err := cfg.ResumeFrom(snap); err != nil {
			return err
		}
		fmt.Fprintf(out, "resuming from %s at generation %d (seed %d)\n", *resume, snap.Generation, snap.Seed)
	}
	if err := ft.Apply(&cfg); err != nil {
		return err
	}
	if cfg.CheckpointEvery > 0 {
		path := *ckptFile
		if path == "" {
			path = *ckpt
		}
		if path == "" {
			return fmt.Errorf("-checkpoint-every requires -checkpoint-file (or -checkpoint) FILE")
		}
		cfg.CheckpointSink = &sim.FileSink{Path: path}
	}

	var rec *trace.Recorder
	if *csvPath != "" {
		rec = trace.NewRecorder(100000)
		cfg.Observer = sim.ObserverFunc(func(gen int, pop *sim.Population, ev sim.Events) {
			rec.Add(trace.Record{
				Generation:  gen,
				Cooperation: pop.MeanCooperationProb(),
				Distinct:    pop.Abundance().Distinct(),
				PC:          ev.PCOccurred,
				Adopted:     ev.Adopted,
				Mutated:     ev.MutationOccurred,
			})
		})
	}

	resilient := spec.Ranks >= 2 && (cfg.FaultPlan != nil || cfg.CheckpointEvery > 0 || cfg.RecvTimeout > 0)
	if cfg.CheckpointEvery > 0 || resilient {
		cfg.EventLog = trace.NewEventLog()
	}
	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var res *sim.Result
	if resilient {
		res, err = sim.RunParallelResilient(cfg, spec.Ranks, ft.MaxRestarts)
	} else {
		res, err = sim.Run(cfg, spec.Ranks)
	}
	if err != nil {
		return err
	}
	if *pprofCPU != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
		fmt.Fprintf(out, "cpu profile -> %s\n", *pprofCPU)
	}
	if *pprofMem != "" {
		runtime.GC() // flush unreachable allocations so the heap profile reflects live data
		if err := writeFile(*pprofMem, pprof.WriteHeapProfile); err != nil {
			return fmt.Errorf("write heap profile: %w", err)
		}
		fmt.Fprintf(out, "heap profile -> %s\n", *pprofMem)
	}

	fmt.Fprintf(out, "run: memory-%d, %d SSets, %d generations, %d ranks, %.2fs\n",
		spec.Memory, spec.SSets, spec.Generations, res.Ranks, res.Elapsed.Seconds())
	fmt.Fprintf(out, "population: %d agents (agents/SSet = #SSets), %d games/generation when fully replayed\n",
		cfg.PopulationSize(), cfg.GamesPerGeneration())
	summary := core.SummaryLines(res)
	fmt.Fprintln(out, summary[0]) // the work counters
	if cfg.EventLog != nil {
		fmt.Fprintf(out, "fault tolerance: %d checkpoints, %d faults, %d recoveries, %d restarts\n",
			cfg.EventLog.Count(trace.EventCheckpoint), cfg.EventLog.Count(trace.EventFault),
			cfg.EventLog.Count(trace.EventRecovery), res.Restarts)
		for _, e := range cfg.EventLog.Events() {
			if e.Kind == trace.EventCheckpoint {
				continue // one per cadence tick; the count above suffices
			}
			detail := strings.ReplaceAll(e.Detail, "\n", "; ") // errors.Join is multi-line
			fmt.Fprintf(out, "  %s: rank %d, attempt %d  %s\n", e.Kind, e.Rank, e.Attempt, detail)
		}
	}
	if res.Metrics != nil {
		printPhaseSummary(out, res)
	}
	for _, line := range summary[1:] {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintln(out, "most abundant strategies:")
	for _, line := range core.SortedAbundanceNames(res, *top) {
		fmt.Fprintln(out, "  ", line)
	}
	if *mapRows > 0 {
		fmt.Fprintln(out, "strategy map (rows = SSets, cols = states; '.'=C '#'=D):")
		fmt.Fprint(out, core.AsciiMap(res.Final, *mapRows))
	}

	if rec != nil {
		if err := writeFile(*csvPath, rec.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d records -> %s\n", rec.Len(), *csvPath)
	}
	if *ckpt != "" {
		// The end state goes through the same atomic, fsync'd replace as the
		// periodic checkpoints that may share this path, so a crash here
		// leaves the last good recovery point, never a torn file.
		if err := (&sim.FileSink{Path: *ckpt}).Save(res.Snapshot(cfg)); err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint -> %s\n", *ckpt)
	}
	if *metricsTo != "" {
		if err := writeMetrics(*metricsTo, *metricsFm, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics (%s) -> %s\n", *metricsFm, *metricsTo)
	}
	return nil
}

// printPhaseSummary renders the per-phase wall-time table and the paper's
// Table-V-style compute/communication split.
func printPhaseSummary(out io.Writer, res *sim.Result) {
	totals := res.Metrics.PhaseTotals()
	var sum time.Duration
	for _, p := range totals {
		sum += time.Duration(p.Nanos)
	}
	fmt.Fprintln(out, "phase summary (wall time summed across ranks):")
	fmt.Fprintf(out, "  %-14s %10s %14s %7s\n", "phase", "calls", "time", "share")
	for _, p := range totals {
		share := 0.0
		if sum > 0 {
			share = 100 * float64(p.Nanos) / float64(sum)
		}
		fmt.Fprintf(out, "  %-14s %10d %14v %6.1f%%\n", p.Phase, p.Calls, time.Duration(p.Nanos).Round(time.Microsecond), share)
	}
	compute, comm, other := res.Metrics.ComputeCommSplit()
	if sum > 0 {
		fmt.Fprintf(out, "compute/comm split: compute %.1f%%, comm %.1f%%, other %.1f%%\n",
			100*float64(compute)/float64(sum), 100*float64(comm)/float64(sum), 100*float64(other)/float64(sum))
	}
	var cs game.CacheStats
	for _, p := range res.Metrics.Phases {
		if p.Cache != nil {
			cs.Merge(*p.Cache)
		}
	}
	if cs.Hits+cs.Misses > 0 {
		fmt.Fprintf(out, "payoff cache: %d hits, %d misses (%.1f%% hit rate), %d live types with a payoff row\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Entries)
	}
}

// writeMetrics serialises the run's metric registry snapshot.
func writeMetrics(path, format string, res *sim.Result) error {
	snap := res.MetricsRegistry().Snapshot()
	return writeFile(path, func(w io.Writer) error {
		if format == "prom" {
			return metrics.WritePrometheus(w, snap)
		}
		return metrics.WriteJSON(w, snap)
	})
}

// writeFile creates path, fills it through write, and reports the first
// failure — Close included, so a full disk is an error, not a short file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
