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
)

// The parallel engine's wire is a function of the plan: every rank derives
// each generation's comparison, mutation and sampling from (Seed, gen) and
// holds the same payoff table, so the ranks meet only where the table lacks
// a cell (and, with a stop hook or a receive deadline, at a sampled
// generation); meetingsOf derives those from a one-rank walk of
// the run. The tests run the engine where samples are sparse: every other
// table in this package runs under 1 000 generations, where the automatic
// SampleStride is 1 and every generation is sampled.

// quietGens lists the generations of [0, gens) of cfg with neither a
// comparison nor a sample: the stretches inside which Nature can stop while
// the workers play on.
func quietGens(t *testing.T, cfg Config, gens int) []int {
	t.Helper()
	if err := cfg.Validate(); err != nil { // resolves the automatic stride
		t.Fatal(err)
	}
	var quiet []int
	master := rng.New(cfg.Seed)
	for gen := 0; gen < gens; gen++ {
		if !natureDecision(&cfg, master, gen).pc && gen%cfg.SampleStride != 0 {
			quiet = append(quiet, gen)
		}
	}
	return quiet
}

// meetingsOf lists the generations at which the ranks of cfg's run meet:
// those whose refresh finds a pair of SSets whose cell the table does not
// hold and, where the run bounds drift, the sampled ones. It derives them
// from a one-rank walk of the same run, keying cells as the engine does —
// served by type, by type id and epoch, so a reclaimed id's cells are gone;
// otherwise by SSet and how often it changed, every SSet changing each
// generation under FullRecompute — and holding that every rank starts, or
// restarts, with an empty table.
func meetingsOf(t *testing.T, cfg Config) []int {
	t.Helper()
	bounded := boundedDrift(&cfg)
	cfg.Control, cfg.CheckpointEvery, cfg.Metrics = nil, 0, false
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	byType := servedByType(&cfg)
	changes := make([]uint32, cfg.NumSSets)
	filled := map[[4]uint32]bool{}
	end := cfg.StartGeneration + cfg.Generations
	var meetings []int
	refresh := func(gen int, pop *Population) {
		key := func(i int) (uint32, uint32) {
			if a := pop.typ[i]; byType {
				return uint32(a), pop.types[a].epoch
			}
			return uint32(i), changes[i]
		}
		for i := range changes {
			if pop.dirty[i] || cfg.FullRecompute {
				changes[i]++
			}
		}
		fresh := false
		for i := range changes {
			for j := range changes {
				a, ea := key(i)
				b, eb := key(j)
				if k := [4]uint32{a, b, ea, eb}; i != j && !filled[k] {
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

// killAt is the send at which worker rank of a run on size ranks enters its
// first meeting at or after generation from (the window's end when none is
// left): each meeting costs a worker its Gather send and what it relays of
// Nature's Bcast down the binomial tree.
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

// collectivesBefore is how many collectives each rank of a run enters before
// generation g: a Gather and a Bcast per meeting.
func collectivesBefore(meetings []int, g int) uint64 { return 2 * before(meetings, g) }

// sparseConfig is a run whose samples are sparse: sampled every 40th
// generation, compared in one of twenty. 9 SSets and 16 rounds keep every
// sum a dyadic rational (see TestInterruptedRunReturnsTheUninterruptedResult),
// so a one-rank run is the bit-exact reference at every rank count.
func sparseConfig(mem, gens int, full bool) Config {
	cfg := testConfig(mem, 9, gens)
	cfg.Rules.Rounds = 16
	cfg.Seed = 2801
	cfg.SampleStride, cfg.PCRate, cfg.Mu = 40, 0.05, 0.2
	cfg.FullRecompute = full
	return cfg
}

// stoppedAt asserts that the stop left its snapshot at generation gen — the
// boundary Nature was asked at, not the meeting the workers heard of it.
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
			quiet := quietGens(t, base, gens)
			if len(quiet) < gens*4/5 {
				t.Fatalf("only %d of %d generations are free of a comparison and a sample", len(quiet), gens)
			}
			// Stops at the first boundary Nature can stop at with the workers
			// already playing, inside an interval, just short of and just past
			// a sample, and at the last generation.
			mid := quiet[len(quiet)/2]
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
					continue // the kills run at the interruption matrix's rank counts
				}
				// A worker dying as it enters its k-th collective, where a
				// receive deadline makes every sampled generation a meeting:
				// the world aborts, and the supervisor restarts the run from
				// its latest snapshot.
				restart := func(cfg Config, k uint64) func(t *testing.T) {
					return func(t *testing.T) {
						cfg := deadline(cfg)
						cfg.CheckpointEvery = 100
						cfg.FaultPlan = mpi.NewFaultPlan().FailCollective(1, k)
						got, err := RunParallelResilient(cfg, ranks, 1)
						if err != nil {
							t.Fatal(err)
						}
						if got.Restarts != 1 || !cfg.FaultPlan.Faults()[0].Fired() {
							t.Fatalf("restarts = %d, kill fired = %v; want one recovery", got.Restarts, cfg.FaultPlan.Faults()[0].Fired())
						}
						assertSameResult(t, want, got, false) // the resume plays every pair again
					}
				}
				// On the reference kernel, keyed by SSet, which meets after
				// every change: the first Gather and the first Bcast, the
				// Gather of the 21st meeting and the Bcast of the 44th early in
				// the run, a meeting deep in it, and the end of the window's.
				meets := meetingsOf(t, deadline(reference(base)))
				if len(meets) < 44 {
					t.Fatalf("%s: %d meetings keyed by SSet, want 44 or more", name, len(meets))
				}
				for _, k := range []uint64{1, 2, 41, 88, collectivesBefore(meets, mid) + 1, collectivesBefore(meets, gens) + 1} {
					t.Run(fmt.Sprintf("%s/collective %d fails", name, k), restart(reference(base), k))
				}
				// Served by type: the first Gather, the first fill, a meeting
				// deep in the run, and the end of the window's.
				meets = meetingsOf(t, deadline(base))
				for _, k := range []uint64{1, 2, collectivesBefore(meets, mid) + 1, collectivesBefore(meets, gens) + 1} {
					t.Run(fmt.Sprintf("%s/typed/collective %d fails", name, k), restart(base, k))
				}
			}
		}
	}
}

// TestDivergedViewFailsTheRun: the end of the window cross-checks every
// worker's view against Nature's, whether the table is keyed by SSet or by
// type. A worker that reports
// one game more than it played (the skewRank seam) fails the run with the
// divergence error instead of a Result; the same run without it succeeds.
func TestDivergedViewFailsTheRun(t *testing.T) {
	base := testConfig(1, 8, 60)
	base.Seed = 331
	for _, arm := range []struct {
		name string
		cfg  Config
	}{{"keyed by SSet", reference(base)}, {"served by type", base}} {
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

// The same stops over unix sockets. The workers play on when Nature stops
// and still send to it at the meeting that tells them: without the Barrier
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
	quiet := quietGens(t, base, gens)
	for _, stopAt := range []int{1, quiet[len(quiet)/2], 401, gens - 1} {
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

// deadline bounds cfg's receives generously: nothing in the tests that
// use it stalls, but a bounded drift makes every sampled generation a
// meeting.
func deadline(cfg Config) Config {
	cfg.RecvTimeout = time.Minute
	return cfg
}

// assertMeetings holds every rank of res to the meetings a walk of its run
// found: a Gather and a Bcast each and at the window's end, and no other
// message.
func assertMeetings(t *testing.T, what string, res *Result, meetings int) {
	t.Helper()
	m := uint64(meetings) + 1
	want := map[string]uint64{"bcast": m, "gather": m}
	for _, rc := range res.Metrics.Comm {
		got := map[string]uint64{}
		for _, co := range rc.Collectives {
			got[co.Op] = co.Calls
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: rank %d entered %v, the walk says %v", what, rc.Rank, got, want)
		}
		for _, tt := range append(rc.SentByTag, rc.RecvByTag...) {
			if l := mpi.TagLabel(tt.Tag); l != "coll_bcast" && l != "coll_gather" {
				t.Errorf("%s: rank %d exchanged %d messages with tag %s", what, rc.Rank, tt.Msgs, l)
			}
		}
	}
}

// TestWireIsAFunctionOfThePlan: each rank's collectives are the meetings a
// walk of the run derives, whether the table is keyed by SSet or by type, at
// every rank count from one, and nothing a strategy's size could move is on
// the wire — a memory-six mixed noisy run sends what the memory-one run on
// the same plan sends.
func TestWireIsAFunctionOfThePlan(t *testing.T) {
	const gens = 600
	for _, ranks := range []int{1, 2, 3, 5, 14} { // 14: a row spans several ranks
		// Keyed by SSet: the reference kernel, and noisy memory-six mixed
		// play, which meet after every change. Every adoption is a coin flip
		// from the Nature stream, so both runs change the same SSets at the
		// same generations. Neither run's metrics gather carries cache
		// counters, whose digits are no function of the plan.
		shared := func(cfg Config) Config {
			cfg.Metrics, cfg.Beta, cfg.AllowWorseAdoption = true, 0, true
			return cfg
		}
		deep := shared(sparseConfig(6, gens, false))
		deep.Kind, deep.Rules.ErrorRate = MixedStrategies, 0.01
		var runs []*Result
		for _, cfg := range []Config{shared(reference(sparseConfig(1, gens, false))), deep} {
			what := fmt.Sprintf("%d ranks, keyed by SSet, memory %d", ranks, cfg.Memory)
			meets := meetingsOf(t, cfg)
			if len(meets) < 3 || len(meets) == gens {
				t.Fatalf("%s: degenerate plan: meetings at %v", what, meets)
			}
			res, err := RunParallel(cfg, ranks)
			if err != nil {
				t.Fatal(err)
			}
			assertMeetings(t, what, res, len(meets))
			runs = append(runs, res)
		}
		res, dres := runs[0], runs[1]
		if dres.Counters.Mutations == 0 || dres.Counters != res.Counters {
			t.Fatalf("the runs do not share a plan: %+v vs %+v", dres.Counters, res.Counters)
		}
		for r, rc := range res.Metrics.Comm {
			if d := dres.Metrics.Comm[r]; d.SentMsgs != rc.SentMsgs || d.SentBytes != rc.SentBytes {
				t.Errorf("%d ranks: rank %d sent %d messages, %d bytes at memory six mixed and %d, %d at memory one — a strategy crossed the wire",
					ranks, r, d.SentMsgs, d.SentBytes, rc.SentMsgs, rc.SentBytes)
			}
		}

		// Served by type, the ranks meet at the fills a walk of the same run
		// finds, at the window's end and — only where something bounds the
		// drift: a stop hook, a receive deadline — at each sampled
		// generation. A world of one has nobody to drift from and meets at
		// its fills only. Every such run is the one-rank run.
		seq, err := RunSequential(sparseConfig(2, gens, false))
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []string{"none", "control", "deadline"} {
			cfg := sparseConfig(2, gens, false)
			cfg.Metrics = true
			switch bound {
			case "control":
				cfg.Control = func(int) error { return nil }
			case "deadline":
				cfg = deadline(cfg)
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
			if ranks == 1 {
				meets = fills
			}
			assertMeetings(t, fmt.Sprintf("%d ranks, %s", ranks, bound), res, len(meets))
		}
	}
}
