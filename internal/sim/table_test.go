package sim

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// missingCells is the set listMissing must list, stated directly: every
// ordered pair of live keys whose cell the table lacks, a key paired with
// itself only where two SSets hold it.
func missingCells(tb *payoffTable) map[[2]int32]bool {
	held := map[int32]int{}
	for _, a := range tb.keys {
		held[a]++
	}
	want := map[[2]int32]bool{}
	for a, na := range held {
		for b := range held {
			if v := tb.tab[a][b]; v != v && (a != b || na > 1) {
				want[[2]int32{a, b}] = true
			}
		}
	}
	return want
}

// TestListMissingKeepsMirrorsAdjacent drives seeded random strategy changes
// through a table keyed by type, one keyed by SSet and one keyed by SSet
// under FullRecompute, and after every refresh's listing checks that each
// listed cell (a, b), a != b, whose mirror (b, a) is listed too sits right
// next to it — so play settles a pure pair's second cell from the
// first's match — and that the listed set is exactly the cells the table
// lacks, each once.
func TestListMissingKeepsMirrorsAdjacent(t *testing.T) {
	typed := testConfig(2, 9, 0)
	full := reference(typed)
	full.FullRecompute = true
	for name, cfg := range map[string]Config{"by type": typed, "by SSet": reference(typed), "by SSet, full": full} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		src := rng.New(51)
		pop := NewPopulation(cfg, src)
		tb := newPayoffTable(&cfg)
		mirrors := 0
		for step := range 300 {
			what := fmt.Sprintf("%s, step %d, changed %v", name, step, pop.changed)
			scheduled := tb.listMissing(&cfg, pop)
			at := map[[2]int32]int{}
			for n, ab := range tb.cells {
				if _, dup := at[ab]; dup {
					t.Fatalf("%s: cell %v listed twice", what, ab)
				}
				at[ab] = n
			}
			for n, ab := range tb.cells {
				if m, ok := at[[2]int32{ab[1], ab[0]}]; ok && ab[0] != ab[1] {
					if m != n-1 && m != n+1 {
						t.Fatalf("%s: cell %v at %d, its mirror at %d", what, ab, n, m)
					}
					mirrors++
				}
			}
			want := missingCells(&tb)
			if len(want) != len(tb.cells) {
				t.Fatalf("%s: listed %d cells %v, the table lacks %d", what, len(tb.cells), tb.cells, len(want))
			}
			for _, ab := range tb.cells {
				if !want[ab] {
					t.Fatalf("%s: listed %v, which the table holds or no live pair needs", what, ab)
				}
			}
			if !tb.byType && uint64(len(tb.cells)) != scheduled {
				t.Fatalf("%s: keyed by SSet, %d cells listed for %d scheduled games", what, len(tb.cells), scheduled)
			}
			for n, ab := range tb.cells {
				tb.tab[ab[0]][ab[1]] = float64(n) // any payoff fills the cell
			}
			pop.clearDirty(0)
			switch i, j := src.Pair(pop.Size()); src.Intn(4) {
			case 0:
				pop.SetStrategy(i, randomTwin(cfg, src))
			case 1:
				pop.Adopt(i, j)
			case 2:
				pop.SetStrategy(i, randomTwin(cfg, src))
				pop.SetStrategy(j, randomTwin(cfg, src))
			}
		}
		if mirrors == 0 {
			t.Fatalf("%s: no pair listed both its cells", name)
		}
	}
}

// TestMeanFitnessPastInt32Pairs pins the mean fitness divisor S(S-1) to
// floating point: at S = 46 342, the first size where it reaches 2^31, the
// int product wraps where int is 32 bits. Every SSet holds the one type, so
// the mean is that type's one cell, exactly.
func TestMeanFitnessPastInt32Pairs(t *testing.T) {
	const s, cell = 46342, 2.75
	tb := payoffTable{tab: [][]float64{{cell}}, keys: make([]int32, s), mark: make([]int, 1)}
	got, err := tb.meanFitness()
	if err != nil {
		t.Fatal(err)
	}
	if got != cell {
		t.Fatalf("mean fitness of %d SSets of one type = %v, want its cell %v", s, got, cell)
	}
}
