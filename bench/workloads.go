package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// engine names the public entry point a workload (or its verification
// reference) goes through.
type engine int

const (
	engNone engine = iota
	engSeq         // sim.RunSequential
	engPar         // sim.RunParallel, benchRanks ranks in one process
	engNet         // sim.RunWorker per rank over unix-socket NetTransports
)

// benchRanks is Nature plus two workers. Nature blocks in Recv while the
// workers compute, so three ranks keep exactly the reference host's two
// cores busy.
const benchRanks = 3

// workload is one named input set. Sizes are fixed; -seconds only decides
// how many operations are measured. An in-process operation takes about
// 0.45 s on the 2-core reference host: that host's noise comes in bursts of
// a few seconds, and the median over ~20 short operations rides them out
// where the median over 5 long ones did not (README.md, "Steadiness").
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why    string
	engine engine // engNone for the service workload
	gens   int
	// ref is the engine whose result every operation must equal (the
	// cross-engine parity check); engNone when the workload is itself the
	// reference implementation.
	ref engine
	// warmup runs one unmeasured operation first.
	warmup bool
	// minOps is the fewest operations measured whatever -seconds says.
	minOps int
	// inputs is how many distinct input sets one run cycles its operations
	// through (0 means 1), each derived from -seed. Where an operation's
	// cost depends heavily on which strategies the seed happens to draw
	// (a slow-mixing pair costs a Markov solve 100x the typical one), one
	// population per run would make runs at different seeds incomparable;
	// the median over several populations, each visited two or three times,
	// is a property of the code again.
	inputs int
	config func(seed uint64) sim.Config
}

func noisyFull(seed uint64) sim.Config {
	c := sim.DefaultConfig(1, 48)
	c.Kind = sim.MixedStrategies
	c.Rules.ErrorRate = 0.01
	c.FullRecompute = true
	c.Seed = seed
	return c
}

func incrM1(seed uint64) sim.Config {
	c := sim.DefaultConfig(1, 64)
	c.Seed = seed
	return c
}

var workloads = []workload{
	{
		name: wSeqFullNoisy, engine: engSeq, gens: 40, warmup: true, config: noisyFull,
		why: "Paper timing mode on Fig. 2 strategies: over 99% in game.Play, noisy so the pair cache is bypassed; a cache change must not move it, a sampled-kernel change moves all of it.",
	},
	{
		name: wParFullNoisy, engine: engPar, gens: 40, ref: engSeq, warmup: true, config: noisyFull,
		why: "Workload 1 on RunParallel with 3 ranks: compute-bound use of mpi (few large fitness messages); with 1 as its single-thread baseline it gives the strong-scaling ratio.",
	},
	{
		name: wSeqFullCache, engine: engSeq, gens: 200, warmup: true, inputs: 8,
		config: func(seed uint64) sim.Config {
			c := sim.DefaultConfig(3, 128)
			c.FullRecompute = true
			c.PayoffCache = true
			c.Seed = seed
			return c
		},
		why: "Noise-free pure memory-3 full recompute with the pair cache on: ~99.8% hits, so PairCache.Get and the fingerprint table do the work and a game.Play change must not move it.",
	},
	{
		name: wSeqExactM3, engine: engSeq, gens: 25, warmup: true, inputs: 12,
		config: func(seed uint64) sim.Config {
			c := core.WSLSValidationConfig(48, 0, seed)
			c.Memory = 3
			c.ExactPayoffs = true
			return c
		},
		why: "WSLS-validation dynamics at memory 3 with exact payoffs: over 99% in analysis.MarkovPayoffN, the evaluator the roadmap wants universal; workloads 1 and 3 never call it.",
	},
	{
		name: wSeqIncrM6, engine: engSeq, gens: 180, warmup: true,
		config: func(seed uint64) sim.Config {
			c := sim.DefaultConfig(6, 64)
			c.Seed = seed
			return c
		},
		why: "The egdsim default mode at the deepest memory: kernel under 2%, time sits in per-generation bookkeeping over 4096-state tables outside every phase timer; the other side of workload 3.",
	},
	{
		name: wParIncrComm, engine: engPar, gens: 25000, ref: engSeq, warmup: true, config: incrM1,
		why: "Incremental memory-1 run on 3 ranks: ~20 us generations of 2 Bcast + p2p fitness + Reduce, so mpi latency (many tiny messages) dominates; workload 2 uses the same layer for bandwidth.",
	},
	{
		name: wNetIncrUnix, engine: engNet, gens: 16000, ref: engPar, warmup: true, config: incrM1,
		// Each operation pays ~5 s of linger, so a time budget alone would
		// leave two samples; three let the median drop one disturbed run.
		minOps: 3,
		why:    "Workload 6's problem over unix-socket NetTransports through sim.RunWorker (the egdrun -worker path): isolates wire codec and mesh-up/teardown cost; every operation pays the linger.",
	},
	{
		name: wServeSmall,
		why:  "Closed loop of 2 clients against a durable egdserve handler: POST, SSE until done, GET /result on small jobs, so admission, journal fsync, checkpoints, SSE and JSON dominate, not the engine.",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one measured operation of an engine workload.
type op struct {
	res *sim.Result
	// wall is launch to exit: the call (for engNet, the first
	// NewNetTransport) until every rank has returned.
	wall time.Duration
	// engineWall is the time the generations took: wall, except for engNet
	// where it is rank 0's Result.Elapsed (mesh-up and linger excluded).
	engineWall time.Duration
}

// netEnv is what the networked engine needs beyond the Config.
type netEnv struct {
	dir string // socket directory, relative so paths stay under 108 bytes
	// linger overrides NetConfig.Linger when positive. Measured runs leave
	// it zero — the default, exactly as egdrun -worker builds its config;
	// only the -quick smoke shortens it.
	linger time.Duration
	seq    int
}

// call runs cfg through the given engine and times it from outside.
func call(e engine, cfg sim.Config, env *netEnv) (op, error) {
	start := time.Now()
	var res *sim.Result
	var err error
	switch e {
	case engSeq:
		res, err = sim.RunSequential(cfg)
	case engPar:
		res, err = sim.RunParallel(cfg, benchRanks)
	case engNet:
		res, err = runNet(cfg, env)
	default:
		return op{}, fmt.Errorf("bench: no engine %d", e)
	}
	wall := time.Since(start)
	if err != nil {
		return op{}, err
	}
	o := op{res: res, wall: wall, engineWall: wall}
	if e == engNet {
		o.engineWall = res.Elapsed
	}
	return o, nil
}

// runNet hosts the three ranks as goroutines, each with its own
// NetTransport, so every message crosses a real unix socket exactly as
// between egdrun's worker processes. It returns rank 0's result once the
// last rank's RunWorker has returned.
func runNet(cfg sim.Config, env *netEnv) (*sim.Result, error) {
	env.seq++
	addrs := make([]string, benchRanks)
	for i := range addrs {
		addrs[i] = filepath.Join(env.dir, fmt.Sprintf("n%d-r%d.sock", env.seq, i))
	}
	results := make([]*sim.Result, benchRanks)
	errs := make([]error, benchRanks)
	var wg sync.WaitGroup
	for r := 0; r < benchRanks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpi.NewNetTransport(mpi.NetConfig{
				Self:    rank,
				Size:    benchRanks,
				Network: "unix",
				Addrs:   addrs,
				Job:     fmt.Sprintf("bench-%d", env.seq),
				Linger:  env.linger,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			results[rank], errs[rank] = sim.RunWorker(cfg, tr)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	if results[0] == nil {
		return nil, fmt.Errorf("rank 0 returned no result")
	}
	return results[0], nil
}
