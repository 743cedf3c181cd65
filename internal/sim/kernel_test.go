package sim_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/cpu/cputest"
	"repro/internal/sim"
	"repro/internal/stats"
)

// withEachKernel runs f once with the engine's mixed matches played by
// game.PlayMixedBatch's Go path alone and, where the CPU has AVX-512 F and
// DQ, once with its kernel on, restoring the CPU's choice after
// (cputest.EachKernel). On amd64 it first fails the test when
// /proc/cpuinfo lists avx512f and avx512dq but the probe does not see
// them, or when the CPU has them but the engine plays scalar.
func withEachKernel(t *testing.T, f func(kernel bool)) {
	t.Helper()
	_, avx512 := cpu.Probe()
	cputest.EachKernel(t, "the engine's mixed matches", &cpu.AVX512, avx512, []string{"avx512f", "avx512dq"}, f)
}

// TestMixedBatchKernelParity holds the engine to the same Result, every
// field bit for bit, the MeanFitness and Cooperation series included,
// with the batch kernel on and off: a noisy mixed full-recompute run and
// a run that keeps its cells across generations (the Fig. 2 validation
// config), each on one rank and on three, the kept run resumed from its
// snapshot at mid-run, and a full-recompute run of 20 SSets on two ranks.
// No rank's share of a full run is a multiple of the kernel's sixteen
// lanes, so each batch ends in a padded group: 132 cells on one rank, 44
// on each of three, and 190 on each of two.
func TestMixedBatchKernelParity(t *testing.T) {
	full := sim.DefaultConfig(2, 12)
	full.Kind, full.Rules.ErrorRate, full.FullRecompute = sim.MixedStrategies, 0.01, true
	full.Generations, full.Seed = 40, 5
	wide := sim.DefaultConfig(2, 20)
	wide.Kind, wide.Rules.ErrorRate, wide.FullRecompute = sim.MixedStrategies, 0.01, true
	wide.Generations, wide.Seed = 20, 6
	kept := core.WSLSValidationConfig(16, 300, 11)
	type run struct {
		name string
		play func() (*sim.Result, error)
	}
	var runs []run
	for _, ranks := range []int{1, 3} {
		runs = append(runs,
			run{"full recompute", func() (*sim.Result, error) { return sim.RunParallel(full, ranks) }},
			run{"kept cells", func() (*sim.Result, error) { return sim.RunParallel(kept, ranks) }})
	}
	runs = append(runs, run{"full recompute, 20 SSets on two ranks", func() (*sim.Result, error) { return sim.RunParallel(wide, 2) }})
	runs = append(runs, run{"kept cells, resumed at generation 150", func() (*sim.Result, error) {
		first := kept
		first.Generations = 150
		half, err := sim.RunParallel(first, 3)
		if err != nil {
			return nil, err
		}
		second := kept
		if err := second.ResumeFrom(half.Snapshot(first)); err != nil {
			return nil, err
		}
		second.Generations = kept.Generations - first.Generations
		return sim.RunParallel(second, 3)
	}})
	var scalar []*sim.Result
	withEachKernel(t, func(kernel bool) {
		for n, r := range runs {
			res, err := r.play()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			if !kernel {
				scalar = append(scalar, res)
			} else {
				assertSameResult(t, r.name, scalar[n], res)
			}
		}
	})
}

// assertSameResult requires every field of two Results but Elapsed and
// Metrics to hold the same bits.
func assertSameResult(t *testing.T, name string, a, b *sim.Result) {
	t.Helper()
	if a.Counters != b.Counters || a.Ranks != b.Ranks || a.Restarts != b.Restarts {
		t.Fatalf("%s: counters, ranks or restarts differ: %+v/%d/%d vs %+v/%d/%d", name, a.Counters, a.Ranks, a.Restarts, b.Counters, b.Ranks, b.Restarts)
	}
	if len(a.Final) != len(b.Final) || len(a.FinalFitness) != len(b.FinalFitness) {
		t.Fatalf("%s: final population sizes differ", name)
	}
	for i := range a.Final {
		if !a.Final[i].Equal(b.Final[i]) {
			t.Fatalf("%s: final strategy %d differs", name, i)
		}
		if x, y := a.FinalFitness[i], b.FinalFitness[i]; math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: final fitness %d: %v vs %v", name, i, x, y)
		}
	}
	for _, s := range []struct {
		series string
		a, b   *stats.Series
	}{{"mean fitness", a.MeanFitness, b.MeanFitness}, {"cooperation", a.Cooperation, b.Cooperation}} {
		pa, pb := s.a.Points(), s.b.Points()
		if len(pa) != len(pb) {
			t.Fatalf("%s: %s series lengths differ: %d vs %d", name, s.series, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].Generation != pb[i].Generation || math.Float64bits(pa[i].Value) != math.Float64bits(pb[i].Value) {
				t.Fatalf("%s: %s sample %d: %v vs %v", name, s.series, i, pa[i], pb[i])
			}
		}
	}
}
