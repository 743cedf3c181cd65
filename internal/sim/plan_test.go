package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The parallel engine's wire is a function of the plan: every rank derives
// each generation's comparison, mutation and sampling from (Seed, gen). In
// the fitness protocol the ranks meet only at a rendezvous, and Nature adds
// one verdict; these tests derive what must cross the wire the same way — by
// walking natureDecision. Served by type, the ranks meet only where the
// payoff table lacks a cell (and, with a stop hook, a receive deadline or
// eviction, at a sampled generation); meetingsOf derives those from a
// sequential walk of the run. The tests run the engine where rendezvous are
// sparse: every other table in this package runs under 1 000 generations,
// where the automatic SampleStride is 1 and every generation is sampled.

// wirePlan is what the plan makes of the wire over a stretch of generations.
type wirePlan struct {
	rendezvous  uint64 // verdict broadcasts inside the stretch
	sampled     uint64 // mean-fitness reductions
	fitnessMsgs uint64 // tagFitness messages: a teacher's and a learner's row segments per comparison
	free        []int  // generations in which no rank talks to another
}

// collectives is how many collectives each rank enters over the stretch.
func (p wirePlan) collectives() uint64 { return p.rendezvous + p.sampled }

// planOf walks the plan of generations [from, to) of cfg on ranks ranks.
func planOf(t *testing.T, cfg Config, ranks, from, to int) wirePlan {
	t.Helper()
	if err := cfg.Validate(); err != nil { // resolves the automatic stride
		t.Fatal(err)
	}
	var p wirePlan
	master := rng.New(cfg.Seed)
	for gen := from; gen < to; gen++ {
		d := natureDecision(&cfg, master, gen)
		if !rendezvous(&cfg, d, gen) {
			p.free = append(p.free, gen)
			continue
		}
		p.rendezvous++
		if gen%cfg.SampleStride == 0 {
			p.sampled++
		}
		if d.pc {
			p.fitnessMsgs += uint64(len(rowSegments(cfg.NumSSets, ranks-1, d.teacher)) + len(rowSegments(cfg.NumSSets, ranks-1, d.learner)))
		}
	}
	return p
}

// meetingsOf lists the generations at which the ranks of cfg's run, served
// by type, meet: those whose refresh finds a live type pair π holds no cell
// for and, where the run bounds drift, the sampled ones. It derives them
// from a sequential walk of the same run, keying cells as the kernel does —
// by type id and epoch, so a reclaimed id's cells are gone — and holding
// that every rank starts, or restarts, with an empty table.
func meetingsOf(t *testing.T, cfg Config) []int {
	t.Helper()
	bounded := boundedDrift(&cfg)
	cfg.Control, cfg.CheckpointEvery, cfg.Metrics = nil, 0, false
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !servedByType(&cfg) {
		t.Fatal("meetingsOf walks a run served by type")
	}
	type cell struct {
		a, b   int
		ea, eb uint32
	}
	filled := map[cell]bool{}
	end := cfg.StartGeneration + cfg.Generations
	var meetings []int
	refresh := func(gen int, pop *Population) {
		fresh := false
		for a, ta := range pop.types {
			for b, tb := range pop.types {
				if k := (cell{a, b, ta.epoch, tb.epoch}); ta.count > 0 && tb.count > 0 && (a != b || ta.count > 1) && !filled[k] {
					filled[k], fresh = true, true
				}
			}
		}
		if fresh || bounded && gen%cfg.SampleStride == 0 {
			meetings = append(meetings, gen)
		}
	}
	if cfg.Generations > 0 {
		refresh(cfg.StartGeneration, NewPopulation(cfg, rng.New(cfg.Seed)))
	}
	// The population after generation g is the one g+1's refresh sees.
	cfg.Observer = ObserverFunc(func(g int, pop *Population, _ Events) {
		if g+1 < end {
			refresh(g+1, pop)
		}
	})
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	return meetings
}

// killAt is the send at which worker rank of a typed run on size ranks
// enters its first meeting at or after generation from (the window's end
// when none is left): each meeting costs a worker its Gather send and what
// it relays of Nature's Bcast down the binomial tree.
func killAt(meetings []int, size, rank, from int) uint64 {
	per := uint64(1)
	for mask := 1; mask < size; mask <<= 1 {
		if rank < mask && rank+mask < size {
			per++
		}
	}
	return before(meetings, from)*per + 1
}

// before counts the meetings ahead of generation g.
func before(meetings []int, g int) uint64 {
	n, _ := slices.BinarySearch(meetings, g)
	return uint64(n)
}

// collectivesBefore is how many collectives each rank of a typed run enters
// before generation g: a Gather and a Bcast per meeting.
func collectivesBefore(meetings []int, g int) uint64 { return 2 * before(meetings, g) }

// sparseConfig is a run whose rendezvous are sparse: sampled every 40th
// generation, compared in one of twenty. 9 SSets and 16 rounds keep every
// sum a dyadic rational (see TestInterruptedRunReturnsTheUninterruptedResult),
// so one sequential run is the bit-exact reference at every rank count.
func sparseConfig(mem, gens int, full bool) Config {
	cfg := testConfig(mem, 9, gens)
	cfg.Rules.Rounds = 16
	cfg.Seed = 2801
	cfg.SampleStride, cfg.PCRate, cfg.Mu = 40, 0.05, 0.2
	cfg.FullRecompute = full
	return cfg
}

// stoppedAt asserts that the stop left its snapshot at generation gen — the
// boundary Nature was asked at, not the rendezvous the workers heard of it.
func stoppedAt(t *testing.T, sink CheckpointSink, gen int) {
	t.Helper()
	if snap, err := sink.Latest(); err != nil || snap == nil || int(snap.Generation) != gen {
		t.Fatalf("stop snapshot %+v, %v; want generation %d", snap, err, gen)
	}
}

func TestFreeRunningRegime(t *testing.T) {
	const gens = 900
	for _, mem := range []int{1, 6} {
		for _, full := range []bool{false, true} {
			base := sparseConfig(mem, gens, full)
			want, err := RunSequential(base)
			if err != nil {
				t.Fatal(err)
			}
			if want.Counters.Adoptions == 0 || want.Counters.Mutations == 0 {
				t.Fatalf("degenerate reference run: %+v", want.Counters)
			}
			plan := planOf(t, base, 2, 0, gens)
			if len(plan.free) < gens*4/5 {
				t.Fatalf("only %d of %d generations are free of a rendezvous", len(plan.free), gens)
			}
			// Stops at the first boundary Nature can stop at with the workers
			// already playing, inside an interval, just short of and just past
			// a rendezvous, and at the last generation.
			mid := plan.free[len(plan.free)/2]
			stops := []int{1, mid, 399, 401, gens - 1}

			for _, ranks := range []int{2, 3, 5} {
				name := fmt.Sprintf("memory=%d/full=%v/ranks=%d", mem, full, ranks)
				t.Run(name+"/parity", func(t *testing.T) {
					got, err := RunParallel(base, ranks)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, want, got, true) // no replay: the game counts agree too
				})
				for _, stopAt := range stops {
					t.Run(fmt.Sprintf("%s/stop at %d", name, stopAt), func(t *testing.T) {
						cfg, asked := base, 0
						cfg.CheckpointSink = NewMemorySink()
						cfg.Control = stopAfter(stopAt, &asked)
						if res, err := RunParallel(cfg, ranks); !errors.Is(err, ErrStopped) || res != nil || asked != 1 {
							t.Fatalf("result %v, error %v, asked %d times; want nil, ErrStopped, once", res, err, asked)
						}
						stoppedAt(t, cfg.CheckpointSink, stopAt)
						assertSameResult(t, want, resumeOn(t, base, cfg.CheckpointSink, ranks), full)
					})
				}
				if ranks == 2 {
					continue // Nature alone is below the engine's floor: nothing to evict onto
				}
				// A worker dying as it enters its k-th collective. On the
				// reference kernel, whose fitness protocol meets at every
				// rendezvous: the first verdict, a reduction, a verdict deep in
				// the run, and the end of the window's.
				evict := func(cfg Config, k uint64) func(t *testing.T) {
					return func(t *testing.T) {
						cfg := evictConfig(cfg)
						cfg.EventLog = trace.NewEventLog()
						cfg.FaultPlan = mpi.NewFaultPlan().FailCollective(1, k)
						got, err := RunParallel(cfg, ranks)
						if err != nil {
							t.Fatal(err)
						}
						if got.Evictions != 1 || cfg.EventLog.Count(trace.EventEviction) != 1 || !cfg.FaultPlan.Faults()[0].Fired() {
							t.Fatalf("evictions = %d, events %+v; want exactly one", got.Evictions, cfg.EventLog.Events())
						}
						assertSameResult(t, want, got, false) // the replay plays every pair again
					}
				}
				for _, k := range []uint64{1, 2, planOf(t, base, ranks, 0, mid).collectives() + 1, plan.collectives() + 1} {
					t.Run(fmt.Sprintf("%s/collective %d fails", name, k), evict(reference(base), k))
				}
				// Served by type, where eviction makes every sampled generation
				// a meeting: the first Gather, the first fill, a meeting deep
				// in the run, and the end of the window's.
				meets := meetingsOf(t, evictConfig(base))
				for _, k := range []uint64{1, 2, collectivesBefore(meets, mid) + 1, collectivesBefore(meets, gens) + 1} {
					t.Run(fmt.Sprintf("%s/typed/collective %d fails", name, k), evict(base, k))
				}
			}
		}
	}
}

// TestDivergedViewFailsTheRun: the end of the window cross-checks every
// worker's view against Nature's, in both protocols. A worker that reports
// one game more than it played (the skewRank seam) fails the run with the
// divergence error instead of a Result; the same run without it succeeds.
func TestDivergedViewFailsTheRun(t *testing.T) {
	base := testConfig(1, 8, 60)
	base.Seed = 331
	for _, arm := range []struct {
		name string
		cfg  Config
	}{{"fitness protocol", reference(base)}, {"served by type", base}} {
		for _, ranks := range []int{3, 5} {
			cfg := arm.cfg
			if _, err := RunParallel(cfg, ranks); err != nil {
				t.Fatalf("%s, %d ranks: %v", arm.name, ranks, err)
			}
			cfg.skewRank = ranks - 1
			if res, err := RunParallel(cfg, ranks); res != nil || err == nil || !strings.Contains(err.Error(), "global views diverged") {
				t.Errorf("%s, %d ranks: result %v, error %v; want the divergence error", arm.name, ranks, res, err)
			}
		}
	}
}

// The same stops over unix sockets. The workers are mid-interval when Nature
// stops and still ship that rendezvous's segments to it: without the Barrier
// behind a stop verdict Nature's process would be gone, and they would fail
// with "rank 0 failed" where a stop is a clean exit.
func TestFreeRunningStopNetworked(t *testing.T) {
	if testing.Short() {
		t.Skip("networked run")
	}
	const gens, ranks = 900, 3
	base := sparseConfig(1, gens, false)
	want, err := RunSequential(base)
	if err != nil {
		t.Fatal(err)
	}
	plan := planOf(t, base, ranks, 0, gens)
	for _, stopAt := range []int{1, plan.free[len(plan.free)/2], 401, gens - 1} {
		t.Run(fmt.Sprintf("stop at %d", stopAt), func(t *testing.T) {
			cfg, asked := base, 0
			cfg.CheckpointSink = NewMemorySink()
			cfg.Control = stopAfter(stopAt, &asked)
			res, errs := runNetworked(t, cfg, ranks)
			if res != nil || !errors.Is(errs[0], ErrStopped) {
				t.Fatalf("Nature: result %v, error %v; want nil, ErrStopped", res, errs[0])
			}
			for rank, err := range errs[1:] {
				if err != nil {
					t.Errorf("worker %d: %v, want a clean exit", 1+rank, err)
				}
			}
			stoppedAt(t, cfg.CheckpointSink, stopAt)
			got := resumeFrom(t, base, cfg.CheckpointSink, func(cfg Config) *Result {
				res, errs := runNetworked(t, cfg, ranks)
				for rank, err := range errs {
					if err != nil {
						t.Fatalf("resumed rank %d: %v", rank, err)
					}
				}
				return res
			})
			assertSameResult(t, want, got, false)
		})
	}
}

// TestWireIsAFunctionOfThePlan: in the fitness protocol each rank's
// collectives and Nature's fitness receives equal the closed form over the
// plan, and nothing a strategy's size could move is on the wire — a
// memory-six mixed run sends what the memory-one run sends. Served by type,
// each rank's collectives are the meetings a sequential walk of the run
// derives.
func TestWireIsAFunctionOfThePlan(t *testing.T) {
	const gens = 600
	for _, ranks := range []int{3, 5, 14} { // 14: a row spans several workers
		// On the reference kernel, whose fitness protocol the noisy run below
		// also runs: neither run's metrics gather carries cache counters,
		// whose digits are no function of the plan.
		base := reference(sparseConfig(1, gens, false))
		base.Metrics = true
		res, err := RunParallel(base, ranks)
		if err != nil {
			t.Fatal(err)
		}
		plan := planOf(t, base, ranks, 0, gens)
		if plan.fitnessMsgs == 0 || plan.rendezvous == uint64(gens) {
			t.Fatalf("degenerate plan %+v", plan)
		}
		// Finalization adds the end-of-window verdict, the game-count
		// reduction and the metrics gather.
		wantColl := map[string]uint64{"bcast": plan.rendezvous + 1, "reduce": plan.sampled + 1, "gather": 1}
		for _, rc := range res.Metrics.Comm {
			got := map[string]uint64{}
			for _, co := range rc.Collectives {
				got[co.Op] = co.Calls
			}
			if fmt.Sprint(got) != fmt.Sprint(wantColl) {
				t.Errorf("%d ranks: rank %d entered %v, the plan says %v", ranks, rc.Rank, got, wantColl)
			}
		}
		wantRecv := map[int]uint64{tagFitness: plan.fitnessMsgs, tagRows: uint64(ranks - 1)}
		for _, tt := range res.Metrics.Comm[0].RecvByTag {
			if want, ok := wantRecv[tt.Tag]; ok && tt.Msgs != want {
				t.Errorf("%d ranks: Nature received %d messages with tag %d, the plan says %d", ranks, tt.Msgs, tt.Tag, want)
			}
			delete(wantRecv, tt.Tag)
		}
		if len(wantRecv) != 0 {
			t.Errorf("%d ranks: Nature received nothing with tags %v", ranks, wantRecv)
		}

		deep := sparseConfig(6, gens, false)
		deep.Metrics = true
		deep.Kind = MixedStrategies
		deep.Rules.ErrorRate = 0.01
		dres, err := RunParallel(deep, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if dres.Counters.Mutations == 0 || dres.Counters.Mutations != res.Counters.Mutations {
			t.Fatalf("the runs do not share a plan: %+v vs %+v", dres.Counters, res.Counters)
		}
		for r, rc := range res.Metrics.Comm {
			if d := dres.Metrics.Comm[r]; d.SentMsgs != rc.SentMsgs || d.SentBytes != rc.SentBytes {
				t.Errorf("%d ranks: rank %d sent %d messages, %d bytes at memory six mixed and %d, %d at memory one — a strategy crossed the wire",
					ranks, r, d.SentMsgs, d.SentBytes, rc.SentMsgs, rc.SentBytes)
			}
		}

		// Served by type, the ranks meet at the fills a sequential walk of the
		// same run finds, at the window's end and — only where something
		// bounds the drift: a stop hook, a receive deadline, eviction — at
		// each sampled generation: a Gather and a Bcast each, one Barrier
		// behind the last with eviction, and nothing else. Every such run is
		// the sequential run.
		seq, err := RunSequential(sparseConfig(2, gens, false))
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []string{"none", "control", "deadline", "evict"} {
			cfg := sparseConfig(2, gens, false)
			cfg.Metrics = true
			switch bound {
			case "control":
				cfg.Control = func(int) error { return nil }
			case "deadline":
				cfg.RecvTimeout = time.Minute
			case "evict":
				cfg = evictConfig(cfg)
			}
			fills, meets := meetingsOf(t, sparseConfig(2, gens, false)), meetingsOf(t, cfg)
			if len(fills) < 3 || bound == "none" && fills[len(fills)-1] < gens/2 || bound != "none" && len(meets) <= len(fills) {
				t.Fatalf("%s: degenerate plan: fills at %v, meetings at %v", bound, fills, meets)
			}
			res, err := RunParallel(cfg, ranks)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, seq, res, true)
			m := uint64(len(meets)) + 1
			want := map[string]uint64{"bcast": m, "gather": m}
			if cfg.Evict {
				want["barrier"] = 1
			}
			for _, rc := range res.Metrics.Comm {
				got := map[string]uint64{}
				for _, co := range rc.Collectives {
					got[co.Op] = co.Calls
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%d ranks, %s: rank %d entered %v, the walk says %v", ranks, bound, rc.Rank, got, want)
				}
				for _, tt := range append(rc.SentByTag, rc.RecvByTag...) {
					if l := mpi.TagLabel(tt.Tag); l != "coll_bcast" && l != "coll_gather" && !strings.HasPrefix(l, "coll_barrier") {
						t.Errorf("%d ranks, %s: rank %d exchanged %d messages with tag %s", ranks, bound, rc.Rank, tt.Msgs, l)
					}
				}
			}
		}
	}
}
