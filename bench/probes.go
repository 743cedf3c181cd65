package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// A probe loops one public call of a layer for a fixed count after a short
// warm-up and reports the mean time per call. Probes run only in the traced
// pass, next to the workload each is predicted to move.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// timeLoop times n calls of f after n/10 warm-up calls and returns the
// nanoseconds and heap allocations per call.
func timeLoop(n int, f func(i int)) (nsPerCall, allocsPerCall float64) {
	for i := 0; i < n/10+1; i++ {
		f(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probe wraps timeLoop in a span named after the metric it feeds.
func probe(rec *recorder, parent int, name string, n int, f func(i int)) (ns, allocs float64) {
	sp := rec.begin("probe."+name, parent, -1, 0, "")
	ns, allocs = timeLoop(n, f)
	rec.end(sp)
	return ns, allocs
}

// runProbes runs the layer probes attached to workload w.
func runProbes(w workload, r *runResult, o options, rec *recorder, parent int, cfg sim.Config, measuredGPS float64, tmp string) error {
	n := func(full int) int { // probe loop count, shortened by -quick
		if o.quick {
			return max(full/quickDiv/10, 3)
		}
		return full
	}
	src := rng.New(o.seed ^ 0xBE7C4)
	m := r.Metrics

	switch w.name {
	case wSeqFullNoisy, wParFullNoisy:
		sp := strategy.NewSpace(1)
		rules := cfg.Rules
		a, b := strategy.RandomMixed(sp, src), strategy.RandomMixed(sp, src)
		m["game.play_mixed_ns"], m["game.play_allocs"] = probe(rec, parent, "game.Play", n(40000), func(int) {
			sink += game.Play(rules, a, b, src).Mean0()
		})
	case wSeqFullCache:
		probeCache(r, rec, parent, n, src)
		for _, mem := range []int{3, 6} {
			sp := strategy.NewSpace(mem)
			s := strategy.RandomPure(sp, src)
			ns, _ := probe(rec, parent, fmt.Sprintf("strategy.CanonicalFingerprint.m%d", mem), n(400000), func(int) {
				fp, _ := strategy.CanonicalFingerprint(s)
				sink += float64(fp.Lo & 1)
			})
			m[fmt.Sprintf("strategy.fingerprint_m%d_ns", mem)] = ns
		}
		m["game.play_pure_m3_ns"] = probePlayPure(rec, parent, 3, n(100000), src)
	case wSeqExactM3:
		pay := cfg.Rules.Payoff
		for _, mem := range []int{1, 3} {
			sp := strategy.NewSpace(mem)
			a, b := strategy.RandomMixed(sp, src), strategy.RandomMixed(sp, src)
			var firstErr error
			ns, allocs := probe(rec, parent, fmt.Sprintf("analysis.MarkovPayoffN.m%d", mem), n(4000), func(int) {
				p0, _, err := analysis.MarkovPayoffN(pay, a, b, 0.01)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				sink += p0
			})
			if firstErr != nil {
				return fmt.Errorf("markov probe: %w", firstErr)
			}
			m[fmt.Sprintf("analysis.markov_m%d_us", mem)] = ns / 1e3
			if mem == 3 {
				m["analysis.markov_m3_allocs"] = allocs
			}
		}
	case wSeqIncrM6:
		sp := strategy.NewSpace(6)
		m["game.play_pure_m6_ns"] = probePlayPure(rec, parent, 6, n(100000), src)
		m["strategy.random_pure_m6_ns"], _ = probe(rec, parent, "strategy.RandomPure.m6", n(20000), func(int) {
			sink += float64(strategy.RandomPure(sp, src).Fingerprint() & 1)
		})
		pop := sim.NewPopulation(cfg, rng.New(o.seed))
		ns, _ := probe(rec, parent, "sim.Population.MeanCooperationProb", n(1000), func(int) {
			sink += pop.MeanCooperationProb()
		})
		m["sim.mean_coop_m6_us"] = ns / 1e3
	case wParIncrComm:
		if err := probeMPI(r, rec, parent, n(20000), nil); err != nil {
			return err
		}
	case wNetIncrUnix:
		env := &netEnv{dir: tmp}
		if o.quick {
			env.linger = quickLinger
		}
		if err := probeMPI(r, rec, parent, n(4000), env); err != nil {
			return err
		}
	}

	// The admission cost model against the measured run: the host
	// calibration is what `egdserve -calibration host` prices jobs with.
	if d := findDef(perLayer, "perfmodel.host_pred_over_measured"); d.definedOn(w.name) {
		sp := rec.begin("probe.perfmodel.HostCalibration", parent, -1, 0, "")
		cal, err := perfmodel.HostCalibration(game.DefaultRules(), n(400), false, o.seed)
		rec.end(sp)
		if err != nil {
			return err
		}
		pred := server.CostModel{Cal: cal}.EstimateSeconds(cfg)
		m["perfmodel.host_pred_over_measured"] = pred / (float64(cfg.Generations) / measuredGPS)
	}
	return nil
}

func findDef(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: no metric " + name)
}

func probePlayPure(rec *recorder, parent, mem, n int, src *rng.Source) float64 {
	sp := strategy.NewSpace(mem)
	rules := game.DefaultRules()
	a, b := strategy.RandomPure(sp, src), strategy.RandomPure(sp, src)
	ns, _ := probe(rec, parent, fmt.Sprintf("game.PlayPure.m%d", mem), n, func(int) {
		sink += game.PlayPure(rules, a, b).Mean0()
	})
	return ns
}

// probeCache times the pair cache's two paths: a hit among as many
// resident keys as workload 3 holds, and a put that has to evict.
func probeCache(r *runResult, rec *recorder, parent int, n func(int) int, src *rng.Source) {
	const resident = 24700
	rules := game.DefaultRules()
	key := func() game.PairKey {
		a := strategy.Fingerprint{Hi: src.Uint64(), Lo: src.Uint64()}
		b := strategy.Fingerprint{Hi: src.Uint64(), Lo: src.Uint64()}
		return game.NewPairKey(a, b, rules, false)
	}
	keys := make([]game.PairKey, resident)
	hot := game.NewPairCache(0)
	for i := range keys {
		keys[i] = key()
		hot.Put(keys[i], float64(i))
	}
	// A stride coprime to the key count walks the keys in a scattered
	// order, so the front-of-list shortcut does not serve the lookups.
	r.Metrics["game.cache_hit_ns"], _ = probe(rec, parent, "game.PairCache.Get", n(2000000), func(i int) {
		v, _ := hot.Get(keys[(i*7919)%resident])
		sink += v
	})
	full := game.NewPairCache(1024)
	for i := 0; i < 1024; i++ {
		full.Put(keys[i], 0)
	}
	// Distinct keys, so every measured Put misses and has to evict; the
	// warm-up reuses the first tenth, long evicted by the time they recur.
	fresh := make([]game.PairKey, n(400000))
	for i := range fresh {
		fresh[i] = key()
	}
	r.Metrics["game.cache_put_evict_ns"], _ = probe(rec, parent, "game.PairCache.Put", len(fresh), func(i int) {
		full.Put(fresh[i], 1)
	})
}

// Point-to-point tags of the mpi probes.
const (
	tagPing = 11
	tagPong = 12
)

// mpiTimes is what rank 0 measured in mpiProbeBody.
type mpiTimes struct {
	bcast, reduce, pingpong time.Duration
	bcastAllocs             uint64
}

// mpiProbeBody is what every rank of a probe world runs: n broadcasts, n
// reductions and n ping-pongs between ranks 0 and 1, each section fenced by
// a barrier. The collective root rotates with the iteration, so no rank
// can run more than a world's worth of calls ahead of the others: the loop
// measures latency, not how fast one root can fill its peers' inboxes (a
// fixed root flooding a unix mesh with thousands of unanswered frames
// wedged the transport; see README.md, observations).
func mpiProbeBody(c *mpi.Comm, n int, out *mpiTimes) error {
	payload := []float64{1, 2, 3}
	size := c.Size()
	if err := c.Barrier(); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Bcast(i%size, payload); err != nil {
			return err
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	bcast := time.Since(start)
	runtime.ReadMemStats(&after)

	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Reduce(i%size, float64(i), mpi.OpSum); err != nil {
			return err
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	reduce := time.Since(start)

	start = time.Now()
	for i := 0; i < n; i++ {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, tagPing, float64(i)); err != nil {
				return err
			}
			if _, err := c.Recv(1, tagPong); err != nil {
				return err
			}
		case 1:
			if _, err := c.Recv(0, tagPing); err != nil {
				return err
			}
			if err := c.Send(0, tagPong, float64(i)); err != nil {
				return err
			}
		}
	}
	pingpong := time.Since(start)
	if c.Rank() == 0 {
		*out = mpiTimes{bcast: bcast, reduce: reduce, pingpong: pingpong, bcastAllocs: after.Mallocs - before.Mallocs}
	}
	return c.Barrier()
}

// probeMPI runs mpiProbeBody on a 3-rank world: in-process when env is nil,
// otherwise over a unix-socket mesh, where it also times wiring the mesh up
// and tearing it down.
func probeMPI(r *runResult, rec *recorder, parent, n int, env *netEnv) error {
	var t mpiTimes
	perCall := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) / 1e3 }
	if env == nil {
		sp := rec.begin("probe.mpi.World", parent, -1, 0, "")
		err := mpi.NewWorld(benchRanks).Run(func(c *mpi.Comm) error { return mpiProbeBody(c, n, &t) })
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("mpi probe: %w", err)
		}
		r.Metrics["mpi.bcast_us"] = perCall(t.bcast)
		r.Metrics["mpi.reduce_us"] = perCall(t.reduce)
		r.Metrics["mpi.pingpong_us"] = perCall(t.pingpong)
		// Whole-process mallocs across all three ranks' broadcasts.
		r.Metrics["mpi.allocs_per_bcast"] = float64(t.bcastAllocs) / float64(n)
		return nil
	}

	env.seq++
	addrs := make([]string, benchRanks)
	for i := range addrs {
		addrs[i] = filepath.Join(env.dir, fmt.Sprintf("p%d-r%d.sock", env.seq, i))
	}
	var (
		wg               sync.WaitGroup
		mu               sync.Mutex
		errs             = make([]error, benchRanks)
		meshUp, bodyDone time.Time
		sp               = rec.begin("probe.mpi.NetTransport", parent, -1, 0, "")
		start            = time.Now()
	)
	for rank := 0; rank < benchRanks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpi.NewNetTransport(mpi.NetConfig{
				Self: rank, Size: benchRanks, Network: "unix", Addrs: addrs,
				Job: fmt.Sprintf("probe-%d", env.seq), Linger: env.linger,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			world := mpi.NewNetWorld(tr)
			if err := tr.Start(); err != nil {
				errs[rank] = err
				tr.Shutdown(err)
				return
			}
			mu.Lock()
			if now := time.Now(); now.After(meshUp) {
				meshUp = now // the mesh is up when its last rank is wired
			}
			mu.Unlock()
			errs[rank] = world.RunLocal(func(c *mpi.Comm) error {
				err := mpiProbeBody(c, n, &t)
				mu.Lock()
				if now := time.Now(); now.After(bodyDone) {
					bodyDone = now
				}
				mu.Unlock()
				return err
			})
		}(rank)
	}
	wg.Wait()
	end := time.Now()
	rec.end(sp)
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi net probe rank %d: %w", rank, err)
		}
	}
	r.Metrics["mpi.net_bcast_us"] = perCall(t.bcast)
	r.Metrics["mpi.net_pingpong_us"] = perCall(t.pingpong)
	r.Metrics["mpi.net_mesh_up_ms"] = meshUp.Sub(start).Seconds() * 1e3
	// Last body return to last RunLocal return: goodbye, linger, close.
	r.Metrics["mpi.net_teardown_s"] = end.Sub(bodyDone).Seconds()
	return nil
}

// probeCheckpoint times the snapshot codec on a memory-6, 64-SSet
// population and the durable FileSink save the service performs per
// checkpoint (temp file, fsync, rename, directory fsync).
func probeCheckpoint(r *runResult, o options, rec *recorder, parent int, tmp string) error {
	n := 200
	if o.quick {
		n = 3
	}
	cfg := sim.DefaultConfig(6, 64)
	pop := sim.NewPopulation(cfg, rng.New(o.seed))
	snap := &checkpoint.Snapshot{
		Generation: 250, Seed: o.seed, Memory: 6, Strategies: pop.Snapshot(),
		Counters: &checkpoint.RunCounters{GamesPlayed: 4032},
	}
	var buf bytes.Buffer
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ns, _ := probe(rec, parent, "checkpoint.Write", n, func(int) {
		buf.Reset()
		note(checkpoint.Write(&buf, snap))
	})
	r.Metrics["checkpoint.write_m6_us"] = ns / 1e3
	r.Metrics["checkpoint.bytes_m6"] = float64(buf.Len())
	data := buf.Bytes()
	ns, _ = probe(rec, parent, "checkpoint.Read", n, func(int) {
		_, err := checkpoint.Read(bytes.NewReader(data))
		note(err)
	})
	r.Metrics["checkpoint.read_m6_us"] = ns / 1e3

	// The service checkpoints its small jobs, so the save is timed on a
	// snapshot of workload 8's job size, not the memory-6 one.
	small := sim.NewPopulation(sim.DefaultConfig(serveMemory, serveSSets), rng.New(o.seed))
	smallSnap := &checkpoint.Snapshot{Generation: 250, Seed: o.seed, Memory: serveMemory, Strategies: small.Snapshot()}
	fs := &sim.FileSink{Path: filepath.Join(tmp, "probe.ckpt")}
	ns, _ = probe(rec, parent, "sim.FileSink.Save", n/2+1, func(int) {
		note(fs.Save(smallSnap))
	})
	r.Metrics["sim.filesink_save_ms"] = ns / 1e6
	return firstErr
}
