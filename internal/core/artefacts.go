package core

import (
	"fmt"
	"runtime"

	"repro/internal/game"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// Options is everything a generator reads beyond the paper's constants.
type Options struct {
	// Cal prices one game per memory depth on the modelled machines
	// (Tables VI-VII, Figs 3-7 and the knee).
	Cal perfmodel.Calibration
	// FullSystem appends the 72-rack 294,912-processor point to Fig. 7.
	FullSystem bool
	// Fig4Procs is Fig. 4's fixed processor count (egdsim scale: 2048).
	Fig4Procs int
}

// Artefact is one table or figure this repository regenerates: its ID (the
// egdsim scale selector: -table 6 is "table6", -knee is "knee") and the
// function that builds it.
type Artefact struct {
	ID    string
	Build func(Options) (*Table, error)
}

// Artefacts is the catalogue, in the order egdsim scale -all prints it: the
// analytic tables, the Blue Gene projections, then the repository's own
// studies. Only the last entry, "measure", times this host; the rest are
// pure functions of Options.
func Artefacts() []Artefact {
	return []Artefact{
		{"table1", tableI}, {"table3", tableIII}, {"table4", tableIV},
		{"table6", tableVI}, {"table7", tableVII}, {"table8", tableVIII},
		{"fig3", fig3}, {"fig4", fig4}, {"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7},
		{"knee", knee}, {"measure", measuredScaling},
	}
}

// tableI renders the Prisoner's Dilemma payoff matrix (paper Table I).
func tableI(Options) (*Table, error) {
	tbl := game.StandardPayoff().Table()
	f := func(cell [2]float64) string { return fmt.Sprintf("%g,%g", cell[0], cell[1]) }
	return &Table{
		Title:   "Table I: Prisoner's Dilemma payoff matrix (agent,opponent)",
		Columns: []string{"Agent\\Opp", "C", "D"},
		Rows: [][]string{
			{"C", f(tbl[0][0]), f(tbl[0][1])},
			{"D", f(tbl[1][0]), f(tbl[1][1])},
		},
	}, nil
}

// tableIII enumerates all 16 memory-one pure strategies (paper Table III),
// annotated with classic names where they coincide.
func tableIII(Options) (*Table, error) {
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
	return t, nil
}

// tableIV reports the strategy-space sizes per memory depth (paper
// Table IV): 4^n states and 2^(4^n) pure strategies.
func tableIV(Options) (*Table, error) {
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
	return t, nil
}

// Paper experiment constants (§VI-B): the small-scale studies fix 1,024
// SSets, 1,000 generations, and a 0.01 PC rate on Blue Gene/L.
const (
	smallStudySSets       = 1024
	smallStudyGenerations = 1000
	SmallStudyPCRate      = 0.01
)

// study is one of §VI-B's two small-scale studies: the rows it varies
// (memory depth or SSet count), its processor columns, and the modelled
// Blue Gene/L run behind one row.
type study struct {
	label, rowFmt string
	rows, procs   []int
	spec          func(row int, cal perfmodel.Calibration) perfmodel.StrongScalingSpec
}

// cell is one grid entry: the row's value and the processor count.
type cell func(row, procs int) (string, error)

func smallStudy(ssets, memory int, cal perfmodel.Calibration) perfmodel.StrongScalingSpec {
	return perfmodel.StrongScalingSpec{
		SSets: ssets, Memory: memory, Generations: smallStudyGenerations,
		PCRate: SmallStudyPCRate, Machine: perfmodel.BlueGeneL(), Cal: cal,
	}
}

// memoryStudy is Table VI / Figs 3-4: 1,024 SSets at memory one to six.
var memoryStudy = study{
	label: "Memory", rowFmt: "memory-%d",
	rows: []int{1, 2, 3, 4, 5, 6}, procs: []int{128, 256, 512, 1024, 2048},
	spec: func(mem int, cal perfmodel.Calibration) perfmodel.StrongScalingSpec {
		return smallStudy(smallStudySSets, mem, cal)
	},
}

// populationStudy is Tables VII-VIII / Fig. 5: memory one as the SSet count
// grows.
var populationStudy = study{
	label: "SSets", rowFmt: "%d",
	rows: []int{1024, 2048, 4096, 8192, 16384, 32768}, procs: []int{256, 512, 1024, 2048},
	spec: func(ssets int, cal perfmodel.Calibration) perfmodel.StrongScalingSpec {
		return smallStudy(ssets, 1, cal)
	},
}

// grid renders the study as rows × processor columns of the given cell.
func (s study) grid(title string, c cell) (*Table, error) {
	t := &Table{Title: title, Columns: []string{s.label}}
	for _, p := range s.procs {
		t.Columns = append(t.Columns, fmt.Sprintf("P=%d", p))
	}
	for _, r := range s.rows {
		row := []string{fmt.Sprintf(s.rowFmt, r)}
		for _, p := range s.procs {
			text, err := c(r, p)
			if err != nil {
				return nil, err
			}
			row = append(row, text)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runtime is the modelled full-simulation seconds (Tables VI and VII).
func (s study) runtime(cal perfmodel.Calibration) cell {
	return func(row, procs int) (string, error) {
		sec, err := s.spec(row, cal).Runtime(procs)
		return fmt.Sprintf("%.4g", sec), err
	}
}

// efficiency is strong-scaling efficiency relative to the study's first
// processor column (Figs 3 and 5).
func (s study) efficiency(cal perfmodel.Calibration) cell {
	return func(row, procs int) (string, error) {
		spec := s.spec(row, cal)
		base, err := spec.Runtime(s.procs[0])
		if err != nil {
			return "", err
		}
		sec, err := spec.Runtime(procs)
		return fmt.Sprintf("%.3f", perfmodel.Efficiency(s.procs[0], base, procs, sec)), err
	}
}

func tableVI(o Options) (*Table, error) {
	return memoryStudy.grid(fmt.Sprintf("Table VI: modelled runtime (s), %d SSets, %d generations [calibration %s]",
		smallStudySSets, smallStudyGenerations, o.Cal.Name), memoryStudy.runtime(o.Cal))
}

func fig3(o Options) (*Table, error) {
	return memoryStudy.grid("Figure 3: strong-scaling efficiency vs memory depth (base P=128)", memoryStudy.efficiency(o.Cal))
}

func tableVII(o Options) (*Table, error) {
	return populationStudy.grid(fmt.Sprintf("Table VII: modelled runtime (s) vs population size [calibration %s]", o.Cal.Name),
		populationStudy.runtime(o.Cal))
}

func fig5(o Options) (*Table, error) {
	return populationStudy.grid("Figure 5: strong-scaling efficiency vs population size (base P=256)", populationStudy.efficiency(o.Cal))
}

// tableVIII reports agents per processor for the paper's a = S convention
// (population S^2 spread over P processors).
func tableVIII(Options) (*Table, error) {
	return populationStudy.grid("Table VIII: agents per processor (agents per SSet = #SSets)",
		func(ssets, procs int) (string, error) {
			return fmt.Sprintf("%d", uint64(ssets)*uint64(ssets)/uint64(procs)), nil
		})
}

// fig4 models the paper's Figure 4: runtime versus memory depth at a fixed
// processor count (the state-lookup cost growth mechanism).
func fig4(o Options) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Figure 4: modelled runtime vs memory depth at P=%d", o.Fig4Procs)}
	t.Columns = []string{"Memory", "Runtime(s)", "xMemory-1"}
	var base float64
	for _, mem := range memoryStudy.rows {
		sec, err := memoryStudy.spec(mem, o.Cal).Runtime(o.Fig4Procs)
		if err != nil {
			return nil, err
		}
		if mem == 1 {
			base = sec
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", mem), fmt.Sprintf("%.4g", sec), fmt.Sprintf("%.1f", sec/base),
		})
	}
	return t, nil
}

// fig6 models the paper's Figure 6: weak scaling at 4,096 SSets per
// processor on Blue Gene/P (memory six), from 1,024 processors up to the
// 64-rack 262,144 of Jugene.
func fig6(o Options) (*Table, error) {
	t := &Table{Title: "Figure 6: weak scaling, 4,096 SSets/processor, memory six, BG/P"}
	t.Columns = []string{"Procs", "SSets", "Agents", "Runtime(s)", "WeakEff"}
	w := perfmodel.WeakScalingSpec{
		SSetsPerProc: 4096, GamesPerSSet: 1, Memory: 6,
		Generations: smallStudyGenerations, PCRate: SmallStudyPCRate,
		Machine: perfmodel.BlueGeneP(), Cal: o.Cal,
	}
	var base float64
	for p := 1024; p <= 262144; p *= 2 {
		sec, err := w.Runtime(p)
		if err != nil {
			return nil, err
		}
		if p == 1024 {
			base = sec
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", w.TotalSSets(p)),
			fmt.Sprintf("%.3g", w.TotalAgents(p)),
			fmt.Sprintf("%.4g", sec),
			fmt.Sprintf("%.4f", perfmodel.WeakEfficiency(base, sec)),
		})
	}
	return t, nil
}

// fig7 models the paper's Figure 7: strong scaling on Blue Gene/P at the
// points system availability allowed, up to 262,144 processors (and, with
// FullSystem, the 72-rack 294,912 point whose non-power-of-two mapping
// costs ~15%).
func fig7(o Options) (*Table, error) {
	t := &Table{Title: "Figure 7: strong scaling, memory six, BG/P (base P=1024)"}
	t.Columns = []string{"Procs", "Runtime(s)", "Speedup", "Efficiency"}
	spec := perfmodel.StrongScalingSpec{
		SSets: 1 << 21, Memory: 6, Generations: 100,
		PCRate: SmallStudyPCRate, Machine: perfmodel.BlueGeneP(), Cal: o.Cal,
	}
	procs := []int{1024, 2048, 8192, 16384, 262144}
	if o.FullSystem {
		procs = append(procs, 294912)
	}
	base, err := spec.Runtime(procs[0])
	if err != nil {
		return nil, err
	}
	for _, p := range procs {
		sec, err := spec.Runtime(p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%.4g", sec),
			fmt.Sprintf("%.1f", perfmodel.Speedup(base, sec)),
			fmt.Sprintf("%.3f", perfmodel.Efficiency(procs[0], base, p, sec)),
		})
	}
	return t, nil
}

// knee tabulates Fig. 5's rule of thumb: the fewest IPD matches per worker
// per generation at which doubling the processors keeps a target
// efficiency, per machine and at the shallowest and deepest memory.
func knee(o Options) (*Table, error) {
	t := &Table{
		Title:   "Efficiency knee: minimum IPD matches/worker/generation for a >= target-efficiency doubling (Fig. 5 rule of thumb)",
		Columns: []string{"Machine", "Memory", "target 0.90", "target 0.95", "target 0.99"},
	}
	for _, mc := range []perfmodel.Machine{perfmodel.BlueGeneL(), perfmodel.BlueGeneP()} {
		for _, mem := range []int{1, 6} {
			row := []string{mc.Name, fmt.Sprintf("%d", mem)}
			for _, target := range []float64{0.90, 0.95, 0.99} {
				k, err := perfmodel.GamesKnee(mc, o.Cal, mem, SmallStudyPCRate, target)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", k))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// measuredScaling runs the real engine across this host's rank
// counts and tabulates measured strong scaling — the non-projected
// counterpart of Figures 3/5/7.
func measuredScaling(Options) (*Table, error) {
	cfg := sim.DefaultConfig(1, 96)
	cfg.Generations = 20
	cfg.PCRate = SmallStudyPCRate
	cfg.FullRecompute = true
	cfg.Rules.Rounds = 100
	cfg.Seed = 1
	rows, err := hostStrongScaling(cfg, defaultHostRankCounts())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Measured strong scaling on this host (%d cores): memory-1, %d SSets, %d generations, full recompute",
			runtime.NumCPU(), cfg.NumSSets, cfg.Generations),
		Columns: []string{"Ranks", "Seconds", "Speedup", "Efficiency"},
	}
	base := rows[0]
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.ranks),
			fmt.Sprintf("%.3f", r.seconds),
			fmt.Sprintf("%.2f", base.seconds/r.seconds),
			fmt.Sprintf("%.3f", perfmodel.Efficiency(base.ranks, base.seconds, r.ranks, r.seconds)),
		})
	}
	return t, nil
}

// hostScalingRow is one measured (not modelled) scaling point: the actual
// engine on goroutine ranks.
type hostScalingRow struct {
	ranks   int
	seconds float64
}

// hostStrongScaling times the real engine on this host for the given
// configuration at each rank count, every rank playing a share of the
// games. A count with more workers than the configuration has SSet pairs to
// share out is skipped; it is an error only if none is left.
func hostStrongScaling(cfg sim.Config, rankCounts []int) ([]hostScalingRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []hostScalingRow
	for _, r := range rankCounts {
		if r-1 > cfg.NumSSets*(cfg.NumSSets-1) {
			continue
		}
		res, err := sim.RunParallel(cfg, r)
		if err != nil {
			return nil, err
		}
		out = append(out, hostScalingRow{ranks: r, seconds: res.Elapsed.Seconds()})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no valid rank counts in %v", rankCounts)
	}
	return out, nil
}

// defaultHostRankCounts returns the rank counts measuredScaling uses:
// powers of two up to the CPU count.
func defaultHostRankCounts() []int {
	var out []int
	for r := 1; r <= runtime.NumCPU(); r *= 2 {
		out = append(out, r)
	}
	return out
}
