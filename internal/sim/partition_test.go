package sim

// Property tests for the work decomposition. A meeting splits its missing
// cells over whatever workers the world has, and live eviction shrinks it,
// so these invariants must hold not just for the launch count but for every
// worker count the world can shrink to (nWorkers-1, nWorkers-2, ...) — the
// loops below cover all of them exhaustively for a spread of population
// sizes.

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// blockRange must partition [0, n) into nWorkers contiguous, ascending,
// non-overlapping blocks whose sizes differ by at most one.
func TestBlockRangePartitionProperties(t *testing.T) {
	for _, s := range []int{2, 3, 4, 5, 8, 13} {
		n := s * (s - 1)
		for nWorkers := 1; nWorkers <= n; nWorkers++ {
			prevHi := 0
			for w := 0; w < nWorkers; w++ {
				lo, hi := blockRange(n, nWorkers, w)
				if lo != prevHi {
					t.Fatalf("n=%d workers=%d: block %d starts at %d, want %d (gap or overlap)",
						n, nWorkers, w, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d workers=%d: block %d inverted [%d,%d)", n, nWorkers, w, lo, hi)
				}
				if size := hi - lo; size != n/nWorkers && size != n/nWorkers+1 {
					t.Fatalf("n=%d workers=%d: block %d size %d, want %d or %d (imbalanced)",
						n, nWorkers, w, size, n/nWorkers, n/nWorkers+1)
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d workers=%d: blocks cover [0,%d), want [0,%d)", n, nWorkers, prevHi, n)
			}
		}
	}
}

// The incremental pass is driven by the changed SSets, not by a scan of the
// block, so what it visits is an invariant of its own: for dirty sets from
// empty to everything, the block must replay exactly the cells (i, j) with
// dirty[i] || dirty[j] — each once, to the value a full replay gives — leave
// the rest untouched, and report scheduledGames' closed form. The three
// configs take the three roads through the kernel: one match settling both
// cells of a pair, the same under the type table (every scheduled cell is a
// hit or a miss), and sampled play from each cell's own stream.
func TestRefreshChangedVisitsExactlyTheDirtyCells(t *testing.T) {
	const untouched = -1 // no payoff is negative
	cached := testConfig(1, 6, 0)
	pure := reference(cached)
	noisy := cached
	noisy.Kind, noisy.Rules.ErrorRate = MixedStrategies, 0.05
	for name, cfg := range map[string]Config{"pure": pure, "cached": cached, "noisy": noisy} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		s := cfg.NumSSets
		master := rng.New(21)
		pop := NewPopulation(cfg, master)
		want := wholeBlock(s)
		if _, err := want.refresh(&cfg, pop, master, newPayoffKernel(&cfg), 3, true); err != nil {
			t.Fatal(err)
		}
		draw := rng.New(22)
		for _, nDirty := range []int{0, 1, 2, 2, 3, s} {
			pop.clearDirty()
			for len(pop.changed) < nDirty {
				pop.markDirty(draw.Intn(s))
			}
			what := fmt.Sprintf("%s, changed %v", name, pop.changed)
			b, kern := wholeBlock(s), newPayoffKernel(&cfg)
			for k := range b.payoffs {
				b.payoffs[k] = untouched
			}
			games, err := b.refresh(&cfg, pop, master, kern, 3, false)
			if err != nil {
				t.Fatal(err)
			}
			scheduled := uint64(0)
			for k, got := range b.payoffs {
				i, j := pairToIJ(s, k)
				if pairIndex(s, i, j) != k {
					t.Fatalf("pairIndex(%d,%d) = %d, want %d", i, j, pairIndex(s, i, j), k)
				}
				expect := float64(untouched)
				if pop.dirty[i] || pop.dirty[j] {
					expect = want.payoffs[k]
					scheduled++
				}
				if got != expect {
					t.Fatalf("%s: the block holds %v for pair (%d,%d), want %v", what, got, i, j, expect)
				}
			}
			if games != scheduled {
				t.Fatalf("%s: the block counted %d games for %d scheduled cells", what, games, scheduled)
			}
			if st := kern.cacheStats(pop); st != nil && st.Hits+st.Misses != games {
				t.Fatalf("%s: %d hits + %d misses for %d games", what, st.Hits, st.Misses, games)
			}
			if sched := scheduledGames(s, len(pop.changed), false); games != sched {
				t.Fatalf("%s: the block counted %d games, scheduledGames says %d", what, games, sched)
			}
		}
	}
}
