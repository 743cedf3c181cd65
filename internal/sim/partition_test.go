package sim

// Property tests for the work decomposition. A meeting splits its missing
// cells over whatever workers the world has, so these invariants must hold
// for every worker count (nWorkers, nWorkers-1, ...) — the loops below
// cover all of them exhaustively for a spread of population sizes.

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

// A refresh is driven by the changed SSets, not by a scan of the table, so
// what it plays is an invariant of its own: for dirty sets from empty to
// everything, a table keyed by SSet must play exactly the cells (i, j) with
// dirty[i] || dirty[j] — each once, to the value a full replay gives — leave
// the rest untouched, and report scheduledGames' closed form. Keyed by type
// it plays only the type pairs it lacks, and every scheduled game is a hit
// or a miss. The three configs take the three roads through the kernel: one
// match settling both cells of a pair, the type table, and sampled play from
// each cell's own stream.
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
		full := cfg
		full.FullRecompute = true
		want := localOn(&full, pop, master)
		if _, err := want.refresh(3); err != nil {
			t.Fatal(err)
		}
		l := localOn(&cfg, pop, master)
		if _, err := l.refresh(3); err != nil { // every SSet starts changed
			t.Fatal(err)
		}
		draw := rng.New(22)
		for _, nDirty := range []int{0, 1, 2, 2, 3, s} {
			pop.clearDirty(3)
			for len(pop.changed) < nDirty {
				pop.markDirty(draw.Intn(s))
			}
			what := fmt.Sprintf("%s, changed %v", name, pop.changed)
			if !l.byType {
				for _, row := range l.tab {
					for j := range row {
						row[j] = untouched
					}
				}
			}
			before := l.stats
			games, err := l.refresh(3)
			if err != nil {
				t.Fatal(err)
			}
			listed := map[[2]int32]bool{}
			for _, ab := range l.cells {
				if listed[ab] {
					t.Fatalf("%s: cell %v listed twice", what, ab)
				}
				listed[ab] = true
			}
			scheduled := uint64(0)
			for i := range s {
				for j := range s {
					if i == j {
						continue
					}
					expect := want.cell(i, j)
					if pop.dirty[i] || pop.dirty[j] {
						scheduled++
					} else if !l.byType {
						expect = untouched
					}
					if got := l.cell(i, j); got != expect {
						t.Fatalf("%s: the table holds %v for pair (%d,%d), want %v", what, got, i, j, expect)
					}
				}
			}
			if games != scheduled || !l.byType && len(l.cells) != int(scheduled) {
				t.Fatalf("%s: the refresh counted %d games and played %d cells for %d scheduled cells", what, games, len(l.cells), scheduled)
			}
			if st := l.cacheStats(pop); st != nil && st.Hits+st.Misses-before.Hits-before.Misses != games {
				t.Fatalf("%s: %d hits + %d misses for %d games", what, st.Hits-before.Hits, st.Misses-before.Misses, games)
			}
			if sched := scheduledGames(s, len(pop.changed), false); games != sched {
				t.Fatalf("%s: the refresh counted %d games, scheduledGames says %d", what, games, sched)
			}
		}
	}
}
