// Package core assembles the framework's pieces into the paper's
// experiments: it builds the configurations behind every table and figure,
// runs them (really, on goroutine ranks) or models them (on the Blue Gene
// machine descriptions), and formats the resulting rows and series the way
// the paper reports them.
//
// Artefacts is the one list of what is regenerated: every table and figure
// of the paper's evaluation section that is a table of numbers is an entry
// with an ID and a Build function, and egdsim scale, the catalogue test and
// cmd/egddoc's citation check all iterate it. Fig. 2 is a run, not a table:
// WSLSValidationConfig and RunWSLSValidation, rendered by egdsim viz.
package core

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// Table is a generic labelled grid for report output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as RFC 4180 CSV: the header, then one record per
// row, a cell quoted only when it holds a comma, quote or line break.
func (t *Table) CSV() string {
	var sb strings.Builder
	// A strings.Builder never fails a write, so neither does the writer.
	_ = csv.NewWriter(&sb).WriteAll(append([][]string{t.Columns}, t.Rows...))
	return sb.String()
}

// WSLSValidationConfig is the scaled Fig. 2 experiment: mixed memory-one
// strategies under execution errors evolve toward Win-Stay Lose-Shift. The
// paper ran 5,000 SSets for 10^7 generations on 2,048 BG/L processors; this
// configuration reproduces the result at workstation scale (e.g. 32 SSets
// over 2×10^6 generations reach >90% WSLS; the paper reports 85%).
//
// Two deliberate parameter choices, documented in DESIGN.md: adoption uses
// the unconditional Fermi rule of the paper's citation [15] (Traulsen et
// al.) rather than the strictly-better gate of the paper's pseudo-code —
// the near-neutral drift it permits is what lets reciprocators bootstrap
// out of all-defect populations at all; and the pairwise-comparison rate is
// 1.0 rather than 0.1, which only rescales the evolution clock (0.1 would
// need ~10× the generations, matching the paper's 10^7). Selection is
// strong (beta 50 on per-round payoffs), so only near-ties drift.
func WSLSValidationConfig(ssets, generations int, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(1, ssets)
	cfg.Generations = generations
	cfg.Kind = sim.MixedStrategies
	cfg.Rules.ErrorRate = 0.01 // errors are what make WSLS beat TFT
	cfg.PCRate = 1.0
	cfg.Mu = sim.DefaultMu
	cfg.Beta = 50
	cfg.AllowWorseAdoption = true
	cfg.Seed = seed
	return cfg
}

// WSLSOutcome summarises a Fig. 2 validation run.
type WSLSOutcome struct {
	// WSLSFraction is the share of final SSets whose strategy rounds to
	// WSLS (paper: 85%).
	WSLSFraction float64
	// DominantFraction is the largest k-means cluster's population share.
	DominantFraction float64
	// DominantIsWSLS reports whether that cluster's centroid rounds to
	// WSLS.
	DominantIsWSLS bool
	// Dominant is that centroid rounded to the nearest pure strategy.
	Dominant *strategy.Pure
	// Clusters is the k-means run itself: assignment, sizes, inertia.
	Clusters *cluster.Result
	// Order lists the SSet indices banded by cluster, largest cluster
	// first — the row order of Fig. 2(b)'s population map.
	Order []int
	// Result carries the full simulation output.
	Result *sim.Result
}

// RunWSLSValidation executes the scaled Fig. 2 experiment and the paper's
// k-means readout (Lloyd clustering of the final strategies). A population
// that already exists is read out the same way: pass it as
// cfg.InitialStrategies with zero generations (egdsim viz -in).
func RunWSLSValidation(cfg sim.Config, kClusters int) (*WSLSOutcome, error) {
	res, err := sim.RunSequential(cfg)
	if err != nil {
		return nil, err
	}
	sp := strategy.NewSpace(cfg.Memory)
	wsls := strategy.WSLS(sp)
	out := &WSLSOutcome{Result: res, WSLSFraction: res.FractionNear(wsls)}
	if kClusters > len(res.Final) {
		kClusters = len(res.Final)
	}
	km, err := cluster.KMeans(cluster.StrategyVectors(res.Final), kClusters, 100, rng.New(cfg.Seed^0xC1))
	if err != nil {
		return nil, err
	}
	out.Clusters = km
	out.Order = make([]int, len(res.Final))
	for i := range out.Order {
		out.Order[i] = i
	}
	sort.SliceStable(out.Order, func(a, b int) bool {
		ca, cb := km.Assign[out.Order[a]], km.Assign[out.Order[b]]
		if km.Sizes[ca] != km.Sizes[cb] {
			return km.Sizes[ca] > km.Sizes[cb]
		}
		return ca < cb
	})
	idx, frac := km.DominantCluster()
	out.DominantFraction = frac
	out.Dominant, err = cluster.RoundCentroid(km.Centroids[idx], sp)
	if err != nil {
		return nil, err
	}
	out.DominantIsWSLS = out.Dominant.Equal(wsls)
	return out, nil
}

// SortedAbundanceNames returns the final population's strategies ranked by
// abundance, labelled by their response string (pure) or nearest pure
// (mixed), for report output.
func SortedAbundanceNames(res *sim.Result, top int) []string {
	type entry struct {
		label string
		count int
	}
	counts := map[string]int{}
	for _, s := range res.Final {
		var label string
		switch v := s.(type) {
		case *strategy.Pure:
			label = v.String()
		case *strategy.Mixed:
			label = "~" + v.NearestPure().String()
		}
		counts[label]++
	}
	entries := make([]entry, 0, len(counts))
	for l, c := range counts {
		entries = append(entries, entry{l, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].count != entries[j].count {
			return entries[i].count > entries[j].count
		}
		return entries[i].label < entries[j].label
	})
	if top < len(entries) {
		entries = entries[:top]
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%s x%d", e.label, e.count)
	}
	return out
}

// SummaryLines returns the deterministic lines of a run report: the work
// counters first, then the last sampled mean fitness and cooperation, the
// WSLS fraction and the distinct-strategy count. Each is a pure function of
// the trajectory, so runs of one seeded configuration diff clean on them
// whichever binary, engine or fault schedule produced them — egdsim and
// egdrun print exactly these, and scripts/chaos_smoke.sh compares them.
func SummaryLines(res *sim.Result) []string {
	lines := []string{fmt.Sprintf("work: %d games, %d PC events, %d adoptions, %d mutations",
		res.Counters.GamesPlayed, res.Counters.PCEvents, res.Counters.Adoptions, res.Counters.Mutations)}
	if g, v, ok := res.MeanFitness.Last(); ok {
		lines = append(lines, fmt.Sprintf("final mean fitness (gen %d): %.4f  [1=all-defect .. 3=full cooperation]", g, v))
	}
	if g, v, ok := res.Cooperation.Last(); ok {
		lines = append(lines, fmt.Sprintf("final cooperation probability (gen %d): %.4f", g, v))
	}
	return append(lines,
		fmt.Sprintf("WSLS fraction: %.3f", res.FractionNear(strategy.WSLS(res.Final[0].Space()))),
		fmt.Sprintf("distinct strategies: %d of %d SSets", res.FinalAbundance().Distinct(), len(res.Final)))
}
