package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The parallel engine's wire is a function of the plan: every rank derives
// each generation's comparison, mutation and sampling from (Seed, gen), the
// ranks meet only at a rendezvous, and Nature adds one verdict. These tests
// derive what must cross the wire the same way — by walking natureDecision —
// and run the engine where rendezvous are sparse: every other table in this
// package runs under 1 000 generations, where the automatic SampleStride is
// 1 and every generation is a rendezvous.

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
				// A worker dying as it enters its k-th collective: the first
				// verdict, a reduction, a verdict deep in the run, and the
				// end of the window's.
				for _, k := range []uint64{1, 2, planOf(t, base, ranks, 0, mid).collectives() + 1, plan.collectives() + 1} {
					t.Run(fmt.Sprintf("%s/collective %d fails", name, k), func(t *testing.T) {
						cfg := evictConfig(base)
						cfg.EventLog = trace.NewEventLog()
						cfg.FaultPlan = mpi.NewFaultPlan().FailCollective(1, k)
						got, err := RunParallel(cfg, ranks)
						if err != nil {
							t.Fatal(err)
						}
						if got.Evictions != 1 || cfg.EventLog.Count(trace.EventEviction) != 1 {
							t.Fatalf("evictions = %d, events %+v; want exactly one", got.Evictions, cfg.EventLog.Events())
						}
						assertSameResult(t, want, got, false) // the replay plays every pair again
					})
				}
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

// TestWireIsAFunctionOfThePlan: each rank's collectives and Nature's fitness
// receives equal the closed form over the plan, and nothing a strategy's
// size could move is on the wire — a memory-six mixed run sends what the
// memory-one run sends.
func TestWireIsAFunctionOfThePlan(t *testing.T) {
	const gens = 600
	for _, ranks := range []int{3, 5, 14} { // 14: a row spans several workers
		// On the reference kernel: the memory-six run below is noisy and keeps
		// no payoff table, so neither run's metrics gather carries cache
		// counters, whose digits are no function of the plan.
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
	}
}
