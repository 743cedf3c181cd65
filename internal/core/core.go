// Package core assembles the framework's pieces into the paper's
// experiments: it builds the configurations behind every table and figure,
// runs them (really, on goroutine ranks) or models them (on the Blue Gene
// machine descriptions), and formats the resulting rows and series the way
// the paper reports them.
//
// Each Table*/Fig* function corresponds to one artefact of the paper's
// evaluation section; cmd/egdscale and the repository-root benchmarks are
// thin wrappers around this package.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/game"
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

// CSV renders the table as CSV.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TableI renders the Prisoner's Dilemma payoff matrix (paper Table I).
func TableI() *Table {
	p := game.StandardPayoff()
	tbl := p.Table()
	f := func(cell [2]float64) string { return fmt.Sprintf("%g,%g", cell[0], cell[1]) }
	return &Table{
		Title:   "Table I: Prisoner's Dilemma payoff matrix (agent,opponent)",
		Columns: []string{"Agent\\Opp", "C", "D"},
		Rows: [][]string{
			{"C", f(tbl[0][0]), f(tbl[0][1])},
			{"D", f(tbl[1][0]), f(tbl[1][1])},
		},
	}
}

// TableIII enumerates all 16 memory-one pure strategies (paper Table III),
// annotated with classic names where they coincide.
func TableIII() *Table {
	sp := strategy.NewSpace(1)
	names := map[uint64]string{
		strategy.AllC(sp).Fingerprint(): "ALLC",
		strategy.AllD(sp).Fingerprint(): "ALLD",
		strategy.TFT(sp).Fingerprint():  "TFT",
		strategy.WSLS(sp).Fingerprint(): "WSLS",
		strategy.Grim(sp).Fingerprint(): "GRIM",
	}
	t := &Table{
		Title:   "Table III: all memory-one pure strategies (state order CC,CD,DC,DD; 0=C 1=D)",
		Columns: []string{"Strategy", "CC", "CD", "DC", "DD", "Name"},
	}
	for i, p := range strategy.EnumeratePure(sp) {
		s := p.String()
		row := []string{fmt.Sprintf("%d", i+1), s[0:1], s[1:2], s[2:3], s[3:4], names[p.Fingerprint()]}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TableIV reports the strategy-space sizes per memory depth (paper
// Table IV): 4^n states and 2^(4^n) pure strategies.
func TableIV() *Table {
	t := &Table{
		Title:   "Table IV: number of pure strategies per memory depth",
		Columns: []string{"Memory", "States", "Strategies"},
	}
	exact := map[int]string{1: "16", 2: "65536", 3: "1.84e19", 4: "1.16e77"}
	for n := 1; n <= 6; n++ {
		sp := strategy.NewSpace(n)
		count, ok := exact[n]
		if !ok {
			count = fmt.Sprintf("2^%d", sp.NumStates())
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", sp.NumStates()),
			count,
		})
	}
	return t
}

// TableVIII reports agents per processor for the paper's a = S convention
// (population S^2 spread over P processors).
func TableVIII(ssets []int, procs []int) *Table {
	t := &Table{Title: "Table VIII: agents per processor (agents per SSet = #SSets)"}
	t.Columns = append(t.Columns, "SSets")
	for _, p := range procs {
		t.Columns = append(t.Columns, fmt.Sprintf("P=%d", p))
	}
	for _, s := range ssets {
		row := []string{fmt.Sprintf("%d", s)}
		for _, p := range procs {
			agents := uint64(s) * uint64(s) / uint64(p)
			row = append(row, fmt.Sprintf("%d", agents))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
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
	// Result carries the full simulation output.
	Result *sim.Result
}

// RunWSLSValidation executes the scaled Fig. 2 experiment and the paper's
// k-means readout (Lloyd clustering of the final strategies).
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
	idx, frac := km.DominantCluster()
	out.DominantFraction = frac
	rounded, err := cluster.RoundCentroid(km.Centroids[idx], sp)
	if err != nil {
		return nil, err
	}
	out.DominantIsWSLS = rounded.Equal(wsls)
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
