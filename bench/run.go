package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/game"
	"repro/internal/sim"
)

// options are the knobs of one workload run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// quick is the harness smoke: one operation at 1/20 size with a short
	// linger, so all eight workloads verify in well under a second each.
	quick        bool
	updateGolden bool
}

const (
	defaultSeed = 1
	quickDiv    = 20
	quickLinger = 50 * time.Millisecond
)

// runResult is everything one run of one workload produced. The detail
// file the parent reads and the driver's result line are both views of it.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Traced    bool    `json:"traced"`
	Quick     bool    `json:"quick,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	// Metrics holds the metrics defined on this workload for this pass:
	// end-to-end when untraced, per-layer when traced.
	Metrics map[string]float64 `json:"metrics"`
	// Samples holds the per-operation values behind each end-to-end
	// metric, which -compare takes quartiles of.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Hash    string               `json:"hash,omitempty"`
	Notes   []string             `json:"notes,omitempty"`
	Spans   []span               `json:"spans,omitempty"`
}

func (r *runResult) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.notef("FAIL: "+format, args...)
}

// wakeHost keeps every CPU busy for a moment before anything is timed.
// After an idle stretch — the 5 s linger that ends the previous
// net_incr_unix run is enough — the reference VM's vCPUs take about half a
// second to come back to speed, and that landed in setup_s: +20-40% on
// identical code, depending only on which workload ran before (0.3 s of
// spinning left +8%, 0.6 s none). The spin is not part of any metric.
func wakeHost() {
	spun := make([]float64, runtime.NumCPU())
	var wg sync.WaitGroup
	for cpu := range spun {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			x := 1.0
			for start := time.Now(); time.Since(start) < wakeFor; {
				for i := 0; i < 1000; i++ {
					x = x*1.0000001 + 1e-9
				}
			}
			spun[cpu] = x
		}(cpu)
	}
	wg.Wait()
	sink += spun[0] // keep the loops from being optimised away
}

const wakeFor = 600 * time.Millisecond

// runWorkload executes one workload in this process.
func runWorkload(w workload, o options) (*runResult, error) {
	if !o.quick {
		wakeHost()
	}
	start := time.Now()
	var rec *recorder
	if o.trace {
		rec = newRecorder(w.name)
	}
	r := &runResult{
		Workload: w.name, Seed: o.seed, Traced: o.trace, Quick: o.quick,
		Metrics: map[string]float64{}, Samples: map[string][]float64{},
	}
	root := rec.begin("run", -1, -1, 0, "")

	tmp, err := os.MkdirTemp(outDir(), "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var t timing
	if w.engine == engNone {
		t, err = runServe(r, o, rec, root, tmp)
	} else {
		t, err = runEngine(w, r, o, rec, root, tmp)
	}
	if err != nil {
		return nil, err
	}
	rec.end(root)

	wall := time.Since(start)
	r.WallS = wall.Seconds()
	if o.trace {
		procMetrics(r, wall)
		r.Metrics["fail_ratio"] = float64(r.Failed) / float64(max(r.Attempted, 1))
		r.Spans = rec.spans
	} else {
		// Set-up is all wall time outside the measured operations:
		// references, warm-up, temp dirs, server boot, verification —
		// with the repeated set-up pass counted once, at its fastest.
		r.Metrics["setup_s"] = (wall - t.measured - t.repeatedSetup).Seconds()
	}
	return r, nil
}

// timing is what a workload body reports back for setup_s.
type timing struct {
	// measured is the wall time spent inside measured operations.
	measured time.Duration
	// repeatedSetup is the time of the set-up passes beyond the fastest:
	// the pass (reference + warm-up, or server boot + warm-up) runs
	// setupPasses times so setup_s can be steadied the way operation walls
	// are, and only the fastest pass is charged.
	repeatedSetup time.Duration
}

const setupPasses = 3

// steadySetup runs pass n times and returns the time of all passes but the
// fastest.
func steadySetup(n int, pass func(i int) error) (time.Duration, error) {
	var total, best time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := pass(i); err != nil {
			return 0, err
		}
		d := time.Since(start)
		total += d
		if i == 0 || d < best {
			best = d
		}
	}
	return total - best, nil
}

// procMetrics reads this process's own resource usage; each workload runs
// in a process of its own, so this is the workload's footprint.
func procMetrics(r *runResult, wall time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.notef("getrusage: %v", err)
		return
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	r.Metrics["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports kB
	r.Metrics["proc.cpu_s"] = cpu
	r.Metrics["proc.cpu_util"] = cpu / (wall.Seconds() * float64(runtime.NumCPU()))
}

// runEngine measures an engine workload: references and warm-up first,
// then operations until -seconds of measured time have passed. In a traced
// run operations alternate untraced / traced (Config.Metrics on), so the
// tracing overhead is a paired difference inside one process.
func runEngine(w workload, r *runResult, o options, rec *recorder, root int, tmp string) (timing, error) {
	cfg := w.config(o.seed)
	cfg.Generations = w.gens
	env := &netEnv{dir: tmp}
	passes := setupPasses
	if o.quick {
		cfg.Generations = max(w.gens/quickDiv, 2)
		env.linger = quickLinger
		passes = 1
	}
	gens := float64(cfg.Generations)

	// Set-up: the cross-engine reference, then one warm-up operation.
	var refHash string
	var refWall time.Duration
	repeated, err := steadySetup(passes, func(pass int) error {
		if w.ref != engNone {
			sp := rec.begin("setup.reference", root, -1, 0, "")
			ref, err := call(w.ref, cfg, env)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("%s reference: %w", w.name, err)
			}
			refHash = hashResult(ref.res)
			if pass == 0 || ref.engineWall < refWall {
				refWall = ref.engineWall
			}
		}
		if !w.warmup || o.quick {
			return nil
		}
		wc := cfg
		if w.engine == engNet {
			// A full networked operation ends in ~5 s of linger. The
			// warm-up only has to fault in the wire path (gob compiles its
			// codecs on first use, which made every first operation ~20%
			// slow), so it runs 1/20 of the generations with a short linger;
			// measured operations keep the default NetConfig.
			wc.Generations = cfg.Generations / quickDiv
			env.linger = quickLinger
		}
		sp := rec.begin("setup.warmup", root, -1, 0, "")
		_, err := call(w.engine, wc, env)
		rec.end(sp)
		env.linger = 0
		if err != nil {
			return fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		return nil
	})
	if err != nil {
		return timing{}, err
	}

	var (
		measured            time.Duration
		walls, engineWalls  samples // untraced operations, seconds
		tracedWalls         samples
		last                *sim.Result // latest traced result
		lastWall            time.Duration
		mallocs, allocBytes uint64
		budget              = time.Duration(o.seconds * float64(time.Second))
		before, after       runtime.MemStats
		wantReps            = max(w.minOps, 1)
		fullGames           = uint64(cfg.Generations) * cfg.GamesPerGeneration()
		// firstHash[i] is the result hash of the first operation on input
		// set i; later operations on the same input must reproduce it.
		firstHash = make([]string, max(w.inputs, 1))
	)
	if o.quick {
		wantReps = 1
	}
	if o.trace {
		wantReps = max(wantReps, 2) // one untraced, one traced
	}
	for rep := 0; ; rep++ {
		traced := o.trace && rep%2 == 1
		// An untraced/traced pair shares its input set.
		input := rep % len(firstHash)
		if o.trace {
			input = rep / 2 % len(firstHash)
		}
		c := cfg
		c.Seed = inputSeed(o.seed, input)
		c.Metrics = traced
		name := "rep"
		if traced {
			name = "rep.traced"
			runtime.ReadMemStats(&before)
		}
		sp := rec.begin(name, root, rep, 0, "")
		ec := rec.begin(engineCallName(w.engine), sp, rep, 0, "")
		got, err := call(w.engine, c, env)
		rec.end(ec)
		rec.end(sp)
		r.Attempted++
		if err != nil {
			r.fail("rep %d: %v", rep, err)
		} else {
			h := hashResult(got.res)
			if firstHash[input] == "" {
				firstHash[input] = h
			}
			if want := firstHash[input]; h != want {
				r.fail("rep %d: result hash %s differs from %s of the earlier rep on the same input", rep, h[:12], want[:12])
			} else if refHash != "" && h != refHash {
				r.fail("rep %d: result hash %s differs from the %s reference %s", rep, h[:12], engineCallName(w.ref), refHash[:12])
			} else if cfg.FullRecompute && got.res.Counters.GamesPlayed != fullGames {
				r.fail("rep %d: GamesPlayed %d, want gens*S*(S-1) = %d", rep, got.res.Counters.GamesPlayed, fullGames)
			}
			measured += got.wall
			if traced {
				runtime.ReadMemStats(&after)
				mallocs, allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				tracedWalls.add(input, got.wall.Seconds())
				last, lastWall = got.res, got.engineWall
			} else {
				walls.add(input, got.wall.Seconds())
				engineWalls.add(input, got.engineWall.Seconds())
			}
		}
		// Stop once the budget is spent; a failing workload is reported,
		// not repeated.
		if rep+1 >= wantReps && (o.quick || measured >= budget || r.Failed > 0) {
			break
		}
	}
	r.Hash = firstHash[0]

	if err := checkGolden(w, r, o); err != nil {
		return timing{}, err
	}

	t := timing{measured: measured, repeatedSetup: repeated}
	if len(walls.v) == 0 {
		return t, nil
	}
	wallFast, engineFast := walls.fast(), engineWalls.fast()
	r.notef("operation wall over %d untraced operations: reported %.4f s, median %.4f s", len(walls.v), wallFast, median(walls.v))
	if !o.trace {
		r.Metrics["gens_per_s"] = gens / engineFast
		r.Metrics["launch_to_exit_s"] = wallFast
		r.Metrics["job_p50_ms"] = wallFast * 1e3
		r.Metrics["jobs_per_s"] = 1 / wallFast
		for i, wall := range walls.v {
			r.Samples["gens_per_s"] = append(r.Samples["gens_per_s"], gens/engineWalls.v[i])
			r.Samples["launch_to_exit_s"] = append(r.Samples["launch_to_exit_s"], wall)
			r.Samples["job_p50_ms"] = append(r.Samples["job_p50_ms"], wall*1e3)
			r.Samples["jobs_per_s"] = append(r.Samples["jobs_per_s"], 1/wall)
		}
		return t, nil
	}

	// Traced pass: phase shares and counters from the public
	// Result.Metrics of the last traced operation, then the layer probes.
	if last != nil && last.Metrics != nil {
		engineShares(r, last, lastWall)
		r.Metrics["sim.games_per_gen"] = float64(last.Counters.GamesPlayed) / gens
		r.Metrics["sim.allocs_per_gen"] = float64(mallocs) / gens
		r.Metrics["sim.alloc_kb_per_gen"] = float64(allocBytes) / 1024 / gens
		r.Metrics["sim.trace_overhead_ratio"] = tracedWalls.fast() / wallFast
		commCounts(r, last, gens)
		var cache game.CacheStats
		for _, rs := range last.Metrics.Phases {
			if rs.Cache != nil {
				cache.Merge(*rs.Cache)
			}
		}
		if cfg.PayoffCache {
			r.Metrics["game.cache_hit_ratio"] = cache.HitRate()
			r.notef("pair cache: %d hits, %d misses, %d evictions, %d entries", cache.Hits, cache.Misses, cache.Evictions, cache.Entries)
		}
	}
	measuredGPS := gens / engineFast
	switch w.name {
	case wParFullNoisy:
		r.Metrics["sim.par_over_seq_full"] = refWall.Seconds() / engineFast
	case wParIncrComm:
		r.Metrics["sim.seq_incr_m1_gens_per_s"] = gens / refWall.Seconds()
		r.Metrics["sim.par_over_seq_incr"] = refWall.Seconds() / engineFast
	case wNetIncrUnix:
		r.Metrics["sim.net_over_par_incr"] = refWall.Seconds() / engineFast
	}
	sp := rec.begin("probes", root, -1, 0, "")
	err = runProbes(w, r, o, rec, sp, cfg, measuredGPS, tmp)
	rec.end(sp)
	return t, err
}

// samples are operation walls tagged with the input set each ran on.
type samples struct {
	v     []float64
	input []int
}

func (s *samples) add(input int, wall float64) {
	s.v = append(s.v, wall)
	s.input = append(s.input, input)
}

// fast is the run's statistic: the fast decile of the walls on each input
// set (what the code costs on that input when the host leaves it alone),
// then the median over input sets (the typical population, whichever ones
// the seed drew). With one input set it is plainly the fast decile.
func (s *samples) fast() float64 {
	byInput := map[int][]float64{}
	for i, wall := range s.v {
		byInput[s.input[i]] = append(byInput[s.input[i]], wall)
	}
	perInput := make([]float64, 0, len(byInput))
	for _, walls := range byInput {
		perInput = append(perInput, fast(walls))
	}
	return median(perInput)
}

// checkGolden holds r.Hash to the committed hash, which pins the trajectory
// at the default seed so an engine change that alters results cannot pass
// as a speedup. With -update-golden it writes the entry instead.
func checkGolden(w workload, r *runResult, o options) error {
	key := w.name
	if o.quick {
		key += "@quick"
	}
	switch {
	case r.Hash == "":
	case o.updateGolden:
		if err := updateGolden(map[string]string{key: r.Hash}); err != nil {
			return err
		}
		r.notef("golden: wrote %s", key)
	case o.seed != defaultSeed:
		r.notef("golden: skipped, seed %d is not the default %d (rep, engine and game-count checks still ran)", o.seed, defaultSeed)
	default:
		golden, err := loadGolden()
		if err != nil {
			return err
		}
		if want, ok := golden[key]; !ok {
			r.fail("golden: no entry %q in %s (run -update-golden)", key, goldenPath())
		} else if want != r.Hash {
			r.fail("golden: result hash %s, committed %s", r.Hash[:12], want[:min(12, len(want))])
		}
	}
	return nil
}

// inputSeed derives the seed of a run's i-th input set; set 0 is the run's
// own seed, which is what the golden file pins.
func inputSeed(seed uint64, i int) uint64 { return seed + 1000003*uint64(i) }

func engineCallName(e engine) string {
	switch e {
	case engSeq:
		return "sim.RunSequential"
	case engPar:
		return "sim.RunParallel"
	case engNet:
		return "sim.RunWorker x3"
	}
	return "none"
}

// engineShares turns the run's public phase totals into shares of the
// available rank time (wall x ranks reporting). untimed_share is what
// rank 0 spent outside every phase timer.
func engineShares(r *runResult, res *sim.Result, wall time.Duration) {
	m := res.Metrics
	ranks := max(len(m.Phases), 1)
	avail := float64(wall.Nanoseconds()) * float64(ranks)
	shares := map[string]float64{}
	for _, p := range m.PhaseTotals() {
		shares[p.Phase] = float64(p.Nanos) / avail
	}
	for metric, phase := range map[string]string{
		"sim.game_play_share":    sim.PhaseGamePlay,
		"sim.nature_step_share":  sim.PhaseNatureStep,
		"sim.fitness_comm_share": sim.PhaseFitnessComm,
		"sim.broadcast_share":    sim.PhaseBroadcast,
		"sim.reduce_share":       sim.PhaseReduce,
		"sim.checkpoint_share":   sim.PhaseCheckpoint,
	} {
		r.Metrics[metric] = shares[phase]
	}
	var rank0 int64
	for _, rs := range m.Phases {
		if rs.Rank == 0 {
			for _, p := range rs.Phases {
				rank0 += p.Nanos
			}
		}
		if ranks > 1 {
			line := fmt.Sprintf("rank %d shares of wall:", rs.Rank)
			for _, p := range rs.Phases {
				line += fmt.Sprintf(" %s=%.3f", p.Phase, float64(p.Nanos)/float64(wall.Nanoseconds()))
			}
			r.notef("%s", line)
		}
	}
	r.Metrics["sim.untimed_share"] = 1 - float64(rank0)/float64(wall.Nanoseconds())
}

// commCounts reads the exact message and wire counters of a traced run.
func commCounts(r *runResult, res *sim.Result, gens float64) {
	m := res.Metrics
	if len(m.Comm) > 0 {
		var msgs, bytes uint64
		for _, c := range m.Comm {
			msgs += c.SentMsgs
			bytes += c.SentBytes
		}
		r.Metrics["mpi.msgs_per_gen"] = float64(msgs) / gens
		r.Metrics["mpi.bytes_per_gen"] = float64(bytes) / gens
	}
	if t := m.Transport; t != nil {
		// Rank 0's view of the wire: every rank has its own transport.
		r.Metrics["mpi.wire_frames_per_gen"] = float64(t.FramesSent+t.FramesRecv) / gens
		r.Metrics["mpi.wire_bytes_per_gen"] = float64(t.BytesSent+t.BytesRecv) / gens
		r.Metrics["mpi.wire_resends"] = float64(t.Resends)
		r.Metrics["mpi.wire_reconnects"] = float64(t.Reconnects)
	}
}

// benchDir is where the benchmark's own files live, relative to the
// working directory (the repository root for `go run ./bench`).
var benchDir = "bench"

// outDir is the one place a run writes to: results, traces, sockets and
// the service's data directory all live under it, inside the checkout.
func outDir() string { return filepath.Join(benchDir, "out") }
