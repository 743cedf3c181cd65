package sim

import (
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestSharesCoresRule pins when a world's ranks yield between slices: only
// where the ranks one process hosts outnumber GOMAXPROCS. A world of one
// never does, and neither does a RunWorker process, which hosts one rank.
func TestSharesCoresRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs, hosted int
		want          bool
	}{
		{1, 3, true}, {2, 3, true}, {1, 2, true},
		{2, 2, false}, {4, 3, false}, {1, 1, false}, {2, 1, false},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := sharesCores(c.hosted); got != c.want {
			t.Errorf("%d hosted ranks at GOMAXPROCS %d: sharesCores %v, want %v", c.hosted, c.procs, got, c.want)
		}
	}
}

// TestOversubscribedWorldMatchesOneRank runs three ranks on one thread, so
// every rank plays its blocks in slices and yields between them, and holds
// each run to the one-rank trajectory: for every evaluator playCells
// slices — the batched sampled match, the exact payoff, the pure match and
// the search engine. Each config's first meeting gives every rank a block
// of more than one slice; the sampled one's blocks (127, 127, 126 cells)
// are multiples of neither the slice nor the kernel's sixteen lanes.
func TestOversubscribedWorldMatchesOneRank(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ranks = 3
	if !sharesCores(ranks) {
		t.Fatalf("%d ranks at GOMAXPROCS 1 do not yield", ranks)
	}
	sampled := testConfig(1, 20, 30)
	sampled.Kind, sampled.Rules.ErrorRate, sampled.FullRecompute = MixedStrategies, 0.01, true
	exact := testConfig(1, 20, 60)
	exact.Kind, exact.Rules.ErrorRate, exact.ExactPayoffs = MixedStrategies, 0.02, true
	pure := testConfig(2, 24, 200)
	search := testConfig(1, 16, 30)
	search.Rules.ErrorRate, search.UseSearchEngine, search.FullRecompute = 0.01, true, true
	for name, cfg := range map[string]Config{"sampled mixed, full recompute": sampled, "exact payoffs": exact, "pure, incremental": pure, "search engine": search} {
		t.Run(name, func(t *testing.T) {
			cfg.Seed = 61
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			tb := newPayoffTable(&cfg)
			tb.listMissing(&cfg, NewPopulation(cfg, rng.New(cfg.Seed)))
			if lo, hi := blockRange(len(tb.cells), ranks, ranks-1); hi-lo <= yieldSlice {
				t.Fatalf("the first meeting's last block is %d cells, not more than one slice of %d", hi-lo, yieldSlice)
			}
			one, err := RunSequential(cfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunParallel(cfg, ranks)
			if err != nil {
				t.Fatal(err)
			}
			assertSameTrajectory(t, one, par)
		})
	}
}
