package sim

// Property tests for the work decomposition. Live eviction re-shards the
// game-pair list over a shrunk worker set, so these invariants must hold
// not just for the launch count but for every worker count the world can
// shrink to (nWorkers-1, nWorkers-2, ...) — the loops below cover all of
// them exhaustively for a spread of population sizes.

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

// rowSegments must tile each SSet's game row exactly: segments in ascending
// column (and worker) order, contiguous, each lying inside its owner's
// block. This is what lets Nature fold fitness in the sequential engine's
// order at any worker count.
func TestRowSegmentsTileRowsExactly(t *testing.T) {
	for _, s := range []int{2, 3, 5, 8} {
		n := s * (s - 1)
		for nWorkers := 1; nWorkers <= n; nWorkers++ {
			for i := 0; i < s; i++ {
				segs := rowSegments(s, nWorkers, i)
				pos := i * (s - 1)
				prevWorker := -1
				for _, seg := range segs {
					if seg.lo != pos {
						t.Fatalf("s=%d workers=%d row %d: segment starts at %d, want %d",
							s, nWorkers, i, seg.lo, pos)
					}
					if seg.hi <= seg.lo {
						t.Fatalf("s=%d workers=%d row %d: empty segment [%d,%d)",
							s, nWorkers, i, seg.lo, seg.hi)
					}
					wLo, wHi := blockRange(n, nWorkers, seg.worker)
					if seg.lo < wLo || seg.hi > wHi {
						t.Fatalf("s=%d workers=%d row %d: segment [%d,%d) escapes worker %d's block [%d,%d)",
							s, nWorkers, i, seg.lo, seg.hi, seg.worker, wLo, wHi)
					}
					if seg.worker <= prevWorker {
						t.Fatalf("s=%d workers=%d row %d: worker order %d after %d",
							s, nWorkers, i, seg.worker, prevWorker)
					}
					prevWorker = seg.worker
					pos = seg.hi
				}
				if pos != (i+1)*(s-1) {
					t.Fatalf("s=%d workers=%d row %d: segments end at %d, want %d",
						s, nWorkers, i, pos, (i+1)*(s-1))
				}
			}
		}
	}
}

// The incremental pass is driven by the changed SSets, not by a scan of the
// block, so what it visits is an invariant of its own: for dirty sets from
// empty to everything and worker counts from one block to rows spanning
// several workers, every block must replay exactly its cells (i, j) with
// dirty[i] || dirty[j] — each once, to the value a full replay gives — leave
// the rest untouched, and report a count that sums over the blocks to
// scheduledGames' closed form. The three configs take the three roads
// through the kernel: one match settling both cells of a pair, the same under
// the type table (every scheduled cell is a hit or a miss), and sampled play
// from each cell's own stream.
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
			for _, nWorkers := range []int{1, 2, 3, 5, 7} {
				what := fmt.Sprintf("%s, changed %v, %d workers", name, pop.changed, nWorkers)
				total := uint64(0)
				for w := 0; w < nWorkers; w++ {
					lo, hi := blockRange(s*(s-1), nWorkers, w)
					b, kern := newPairBlock(s, lo, hi), newPayoffKernel(&cfg)
					for k := range b.payoffs {
						b.payoffs[k] = untouched
					}
					games, err := b.refresh(&cfg, pop, master, kern, 3, false)
					if err != nil {
						t.Fatal(err)
					}
					scheduled := uint64(0)
					for k := lo; k < hi; k++ {
						i, j := pairToIJ(s, k)
						if pairIndex(s, i, j) != k {
							t.Fatalf("pairIndex(%d,%d) = %d, want %d", i, j, pairIndex(s, i, j), k)
						}
						expect := float64(untouched)
						if pop.dirty[i] || pop.dirty[j] {
							expect = want.payoffs[k]
							scheduled++
						}
						if got := b.payoffs[k-lo]; got != expect {
							t.Fatalf("%s: block %d holds %v for pair (%d,%d), want %v", what, w, got, i, j, expect)
						}
					}
					if games != scheduled {
						t.Fatalf("%s: block %d counted %d games for %d scheduled cells", what, w, games, scheduled)
					}
					if st := kern.cacheStats(pop); st != nil && st.Hits+st.Misses != games {
						t.Fatalf("%s: block %d: %d hits + %d misses for %d games", what, w, st.Hits, st.Misses, games)
					}
					total += games
				}
				if sched := scheduledGames(s, len(pop.changed), false); total != sched {
					t.Fatalf("%s: blocks counted %d games, scheduledGames says %d", what, total, sched)
				}
			}
		}
	}
}
