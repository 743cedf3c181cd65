package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/strategy"
)

func testConfig(mem, ssets, gens int) Config {
	cfg := DefaultConfig(mem, ssets)
	cfg.Generations = gens
	cfg.Rules.Rounds = 20 // keep unit tests fast; dynamics unaffected
	return cfg
}

func TestNewPopulationDeterministic(t *testing.T) {
	cfg := testConfig(1, 16, 0)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewPopulation(cfg, rng.New(7))
	b := NewPopulation(cfg, rng.New(7))
	for i := 0; i < a.Size(); i++ {
		if !a.strategies[i].Equal(b.strategies[i]) {
			t.Fatalf("SSet %d differs between identically seeded populations", i)
		}
	}
	c := NewPopulation(cfg, rng.New(8))
	same := 0
	for i := 0; i < a.Size(); i++ {
		if a.strategies[i].Equal(c.strategies[i]) {
			same++
		}
	}
	if same == a.Size() {
		t.Fatal("different seeds gave identical population")
	}
}

func TestPopulationKinds(t *testing.T) {
	cfg := testConfig(1, 8, 0)
	cfg.Kind = MixedStrategies
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(1))
	if _, ok := p.strategies[0].(*strategy.Mixed); !ok {
		t.Fatal("mixed config produced non-mixed strategy")
	}
	cfg.Kind = PureStrategies
	p = NewPopulation(cfg, rng.New(1))
	if _, ok := p.strategies[0].(*strategy.Pure); !ok {
		t.Fatal("pure config produced non-pure strategy")
	}
}

func TestAdoptClones(t *testing.T) {
	cfg := testConfig(1, 4, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(2))
	p.Adopt(0, 1)
	if !p.strategies[0].Equal(p.strategies[1]) {
		t.Fatal("adopt did not copy strategy")
	}
	// Mutating the teacher must not change the learner: they are clones.
	p.SetStrategy(1, strategy.AllD(p.Space()))
	if p.strategies[0].Equal(p.strategies[1]) {
		t.Fatal("learner aliases teacher after SetStrategy")
	}
}

// localOn is a sequential engine's fitness source over pop: its refresh is
// the sequential engine's, onto a table of its own.
func localOn(cfg *Config, pop *Population, master *rng.Source) *localSource {
	return &localSource{nature: &nature{cfg: cfg, master: master, pop: pop}, payoffTable: newPayoffTable(cfg)}
}

// cell is the table's payoff of SSet i against j under the last refresh's
// keys.
func (t *payoffTable) cell(i, j int) float64 { return t.tab[t.keys[i]][t.keys[j]] }

func TestFitnessFromPayoffs(t *testing.T) {
	cfg := reference(testConfig(1, 3, 0)) // keyed by SSet
	_ = cfg.Validate()
	tb := newPayoffTable(&cfg)
	tb.keys = []int32{0, 1, 2}
	tb.tab[0][1], tb.tab[0][2] = 2.0, 4.0
	if got := tb.fitness(0); got != 3.0 {
		t.Fatalf("fitness = %v, want 3", got)
	}
	fs := tb.finalFitness()
	if len(fs) != 3 || fs[0] != 3.0 {
		t.Fatalf("FinalFitness = %v", fs)
	}
	// Keyed by type, SSets 0 and 2 share a row: SSet 0 meets its twin once.
	typed := testConfig(1, 3, 0)
	_ = typed.Validate()
	tb = newPayoffTable(&typed)
	tb.keys = []int32{0, 1, 0}
	tb.tab[0], tb.tab[1] = []float64{1.0, 5.0, 0}, []float64{0, 0, 0}
	if got := tb.fitness(0); got != 3.0 {
		t.Fatalf("typed fitness = %v, want 3", got)
	}
	if got := tb.finalFitness(); got[0] != 3.0 || got[2] != 3.0 || got[1] != 0 {
		t.Fatalf("typed FinalFitness = %v, want [3 0 3]", got)
	}
}

func TestFitnessScaleIsPerRound(t *testing.T) {
	// The Fermi-exponent contract: fitness is a mean PER-ROUND payoff
	// averaged over S-1 opponents — the payoff table already divides by the
	// match length, so fitness must not change with Rules.Rounds. AllD in a
	// field of AllC earns exactly the temptation payoff every round.
	for _, rounds := range []int{10, 200} {
		for _, cfg := range []Config{testConfig(1, 4, 0), reference(testConfig(1, 4, 0))} {
			cfg.Rules.Rounds = rounds
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			master := rng.New(13)
			pop := NewPopulation(cfg, master)
			pop.SetStrategy(0, strategy.AllD(pop.Space()))
			for i := 1; i < pop.Size(); i++ {
				pop.SetStrategy(i, strategy.AllC(pop.Space()))
			}
			l := localOn(&cfg, pop, master)
			if _, err := l.refresh(0); err != nil {
				t.Fatal(err)
			}
			if got := l.fitness(0); got != cfg.Rules.Payoff.T {
				t.Fatalf("rounds=%d, by type %v: AllD fitness = %v, want temptation %v (per-round scale)",
					rounds, l.byType, got, cfg.Rules.Payoff.T)
			}
		}
	}
}

func TestFractionNear(t *testing.T) {
	cfg := testConfig(1, 4, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(4))
	w := strategy.WSLS(p.Space())
	p.SetStrategy(0, w.Clone())
	p.SetStrategy(1, w.Clone())
	p.SetStrategy(2, strategy.AllD(p.Space()))
	p.SetStrategy(3, strategy.AllC(p.Space()))
	if got := p.FractionNear(w); got != 0.5 {
		t.Fatalf("FractionNear = %v", got)
	}
	// A mixed strategy close to WSLS counts too.
	m := strategy.MixedFromProbs(p.Space(), []float64{0.95, 0.1, 0.2, 0.9})
	p.SetStrategy(3, m)
	if got := p.FractionNear(w); got != 0.75 {
		t.Fatalf("FractionNear with mixed = %v, want 0.75", got)
	}
}

func TestMeanCooperationProb(t *testing.T) {
	cfg := testConfig(1, 2, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(5))
	p.SetStrategy(0, strategy.AllC(p.Space()))
	p.SetStrategy(1, strategy.AllD(p.Space()))
	if got := p.MeanCooperationProb(); got != 0.5 {
		t.Fatalf("mean coop = %v, want 0.5", got)
	}
}

func TestSnapshotDeep(t *testing.T) {
	cfg := testConfig(1, 2, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(6))
	snap := p.Snapshot()
	p.SetStrategy(0, strategy.AllD(p.Space()))
	if snap[0].Equal(p.strategies[0]) && snap[0].Equal(strategy.AllD(p.Space())) {
		t.Fatal("snapshot aliases population")
	}
}

func TestAbundanceFromPopulation(t *testing.T) {
	cfg := testConfig(1, 5, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(7))
	w := strategy.WSLS(p.Space())
	for i := 0; i < 4; i++ {
		p.SetStrategy(i, w.Clone())
	}
	p.SetStrategy(4, strategy.AllD(p.Space()))
	if d := p.Abundance().Distinct(); d != 2 {
		t.Fatalf("distinct %d, want 2", d)
	}
}

func TestFermi(t *testing.T) {
	// Equal payoffs: coin flip.
	if got := Fermi(1, 2, 2); got != 0.5 {
		t.Fatalf("Fermi(equal) = %v", got)
	}
	// Teacher much better, strong selection: ~1.
	if got := Fermi(10, 3, 1); got < 0.999 {
		t.Fatalf("Fermi(strong, better) = %v", got)
	}
	// Teacher much worse, strong selection: ~0.
	if got := Fermi(10, 1, 3); got > 0.001 {
		t.Fatalf("Fermi(strong, worse) = %v", got)
	}
	// Beta 0: random drift, always 1/2.
	if got := Fermi(0, 0, 100); got != 0.5 {
		t.Fatalf("Fermi(beta 0) = %v", got)
	}
	// Monotone in the payoff difference.
	prev := 0.0
	for d := -5.0; d <= 5; d += 0.5 {
		p := Fermi(1, d, 0)
		if p <= prev && d > -5 {
			t.Fatalf("Fermi not increasing at d=%v", d)
		}
		prev = p
	}
	// Symmetry: p(d) + p(-d) = 1.
	for _, d := range []float64{0.1, 1, 3} {
		if math.Abs(Fermi(1, d, 0)+Fermi(1, -d, 0)-1) > 1e-12 {
			t.Fatalf("Fermi asymmetric at d=%v", d)
		}
	}
}

func TestBlockRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 3}, {16, 4}, {7, 7}, {5, 2}, {1024, 63}, {90, 17}} {
		covered := 0
		prevHi := 0
		for w := 0; w < tc.w; w++ {
			lo, hi := blockRange(tc.n, tc.w, w)
			if lo != prevHi {
				t.Fatalf("n=%d w=%d: gap at worker %d (lo %d, prev hi %d)", tc.n, tc.w, w, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("negative range")
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n || prevHi != tc.n {
			t.Fatalf("n=%d w=%d: covered %d", tc.n, tc.w, covered)
		}
	}
}

// TestPairToIJ: a full recompute keyed by SSet lists every ordered pair of
// SSets exactly once — the k-th listed cell is a valid (i, j != i) and the
// mapping is a bijection over the S×(S-1) games — each pair's two cells
// back to back, pairs in row-major order of their lower SSet.
func TestPairToIJ(t *testing.T) {
	for _, s := range []int{2, 3, 5, 10} {
		cfg := reference(testConfig(1, s, 0))
		cfg.FullRecompute = true
		_ = cfg.Validate()
		pop := NewPopulation(cfg, rng.New(3))
		pop.clearDirty(0)
		tb := newPayoffTable(&cfg)
		if games := tb.listMissing(&cfg, pop); games != uint64(s*(s-1)) || len(tb.cells) != s*(s-1) {
			t.Fatalf("s=%d: %d games, %d cells listed, want %d", s, games, len(tb.cells), s*(s-1))
		}
		seen := map[[2]int32]bool{}
		for k, ij := range tb.cells {
			if i, j := ij[0], ij[1]; i < 0 || int(i) >= s || j < 0 || int(j) >= s || i == j {
				t.Fatalf("s=%d cell %d -> invalid %v", s, k, ij)
			}
			if seen[ij] {
				t.Fatalf("s=%d pair %v listed twice", s, ij)
			}
			seen[ij] = true
		}
	}
	// Explicit spot checks: (0,1) and its mirror first, (3,2) last.
	cfg := reference(testConfig(1, 4, 0))
	cfg.FullRecompute = true
	_ = cfg.Validate()
	tb := newPayoffTable(&cfg)
	tb.listMissing(&cfg, NewPopulation(cfg, rng.New(3)))
	want := [][2]int32{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 3}, {3, 0}, {1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 3}, {3, 2}}
	if fmt.Sprint(tb.cells) != fmt.Sprint(want) {
		t.Fatalf("listed %v, want %v", tb.cells, want)
	}
}

func TestRefreshPayoffsIncremental(t *testing.T) {
	cfg := reference(testConfig(1, 6, 0)) // keyed by SSet: every scheduled game is a listed cell
	_ = cfg.Validate()
	master := rng.New(9)
	pop := NewPopulation(cfg, master)
	l := localOn(&cfg, pop, master)
	refresh := func(gen int) (uint64, int, error) {
		games, err := l.refresh(gen)
		return games, len(l.cells), err
	}
	// The closed-form tally must agree with every pass.
	scheduled := func() uint64 { return scheduledGames(pop.Size(), len(pop.changed), cfg.FullRecompute) }
	// First refresh: everything dirty -> S*(S-1) games.
	if got := scheduled(); got != 30 {
		t.Fatalf("initial schedule tallies %d games, want 30", got)
	}
	if games, cells, err := refresh(0); err != nil || games != 30 || cells != 30 {
		t.Fatalf("initial refresh counted %d games, played %d cells, want 30 (err %v)", games, cells, err)
	}
	pop.clearDirty(0)
	// Nothing changed: zero games.
	if g, c, err := refresh(1); err != nil || g != 0 || c != 0 || scheduled() != 0 {
		t.Fatalf("clean refresh counted %d games, played %d cells (err %v)", g, c, err)
	}
	// One SSet changes: its row (5 games) plus its column (5 games).
	pop.SetStrategy(2, strategy.AllD(pop.Space()))
	if g, c, err := refresh(2); err != nil || g != 10 || c != 10 || scheduled() != 10 {
		t.Fatalf("single-change refresh counted %d games, played %d cells, want 10 (err %v)", g, c, err)
	}
	pop.clearDirty(0)
	// Full recompute mode: always S*(S-1).
	cfg.FullRecompute = true
	if g, c, err := refresh(3); err != nil || g != 30 || c != 30 || scheduled() != 30 {
		t.Fatalf("full recompute counted %d games, played %d cells, want 30 (err %v)", g, c, err)
	}
}

func TestPayoffValuesMatchDirectPlay(t *testing.T) {
	for _, cfg := range []Config{testConfig(1, 4, 0), reference(testConfig(1, 4, 0))} {
		_ = cfg.Validate()
		master := rng.New(11)
		pop := NewPopulation(cfg, master)
		pop.SetStrategy(0, strategy.AllC(pop.Space()))
		pop.SetStrategy(1, strategy.AllD(pop.Space()))
		l := localOn(&cfg, pop, master)
		if _, err := l.refresh(0); err != nil {
			t.Fatal(err)
		}
		// ALLC vs ALLD: sucker payoff 0 per round; ALLD vs ALLC: temptation 4.
		if got := l.cell(0, 1); got != 0 {
			t.Fatalf("by type %v: payoff(ALLC,ALLD) = %v", l.byType, got)
		}
		if got := l.cell(1, 0); got != 4 {
			t.Fatalf("by type %v: payoff(ALLD,ALLC) = %v", l.byType, got)
		}
	}
}

// Worker shares are windows onto the one cell list: a full recompute keyed
// by SSet lists every pair, and split with blockRange, each share played
// cell by cell as a worker plays a meeting's cells — on its own kernel, from
// each pair's (gen, i, j) stream — the shares hold exactly the payoffs the
// sequential source installs, in list order, at any worker count. That is
// what lets a run keyed by SSet fill its table from the workers and fold
// each row's fitness in column order.
func TestPairBlocksTileTheWholeList(t *testing.T) {
	cfg := testConfig(1, 6, 0)
	cfg.Rules.ErrorRate = 0.05 // noisy: payoffs depend on the (gen, i, j) stream
	cfg.FullRecompute = true
	_ = cfg.Validate()
	master := rng.New(21)
	pop := NewPopulation(cfg, master)
	s := pop.Size()
	whole := localOn(&cfg, pop, master)
	if _, err := whole.refresh(4); err != nil {
		t.Fatal(err)
	}
	if len(whole.cells) != s*(s-1) {
		t.Fatalf("a full recompute listed %d cells, want %d", len(whole.cells), s*(s-1))
	}
	for _, nWorkers := range []int{1, 2, 4, 7, s * (s - 1)} {
		var flat []float64
		for w := 0; w < nWorkers; w++ {
			lo, hi := blockRange(len(whole.cells), nWorkers, w)
			worker := newPayoffTable(&cfg)
			worker.rep = whole.rep
			vals, err := worker.playCells(&cfg, pop, master, 4, whole.cells[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			flat = append(flat, vals...)
		}
		for k, ab := range whole.cells {
			if v := whole.tab[ab[0]][ab[1]]; flat[k] != v {
				t.Fatalf("%d workers: cell %d %v payoff %v, the sequential source has %v", nWorkers, k, ab, flat[k], v)
			}
		}
	}
}

// checkTypeTable holds the Population's type table to its strategies: every
// id resolves to its SSet's canonical fingerprint, equal behaviour means
// equal id and nothing else does, the counts are the SSets per type, ids stay
// below S, and the free list is exactly the dead ids.
func checkTypeTable(t *testing.T, step string, p *Population) {
	t.Helper()
	s := p.Size()
	if len(p.types) > s {
		t.Fatalf("%s: %d type ids for %d SSets", step, len(p.types), s)
	}
	held := make([]int, len(p.types))
	fps := make([]strategy.Fingerprint, s)
	for i, st := range p.strategies {
		fp, ok := strategy.CanonicalFingerprint(st)
		id := p.typ[i]
		if !ok || id < 0 || int(id) >= len(p.types) {
			t.Fatalf("%s: SSet %d has type id %d (fingerprint known: %v)", step, i, id, ok)
		}
		if ty := p.types[id]; ty.fp != fp || p.ids[fp] != id {
			t.Fatalf("%s: SSet %d: id %d is %+v (index says %d), strategy fingerprints to %v", step, i, id, ty, p.ids[fp], fp)
		}
		fps[i] = fp
		held[id]++
		for j := 0; j < i; j++ {
			if (fps[j] == fp) != (p.typ[j] == id) {
				t.Fatalf("%s: SSets %d and %d: same behaviour %v, same id %v", step, j, i, fps[j] == fp, p.typ[j] == id)
			}
		}
	}
	dead := map[int32]bool{}
	for _, id := range p.free {
		if dead[id] || p.types[id].count != 0 {
			t.Fatalf("%s: free list %v holds id %d twice or alive (count %d)", step, p.free, id, p.types[id].count)
		}
		dead[id] = true
	}
	for id, ty := range p.types {
		if ty.count != held[id] || (ty.count == 0) != dead[int32(id)] {
			t.Fatalf("%s: id %d counts %d SSets, %d hold it, on the free list: %v", step, id, ty.count, held[id], dead[int32(id)])
		}
	}
}

// TestTypeTableFollowsEveryStrategyChange drives seeded random sequences of
// the two ways strategies change — SetStrategy and Adopt — over
// memory 1-3, pure and mixed, and checks the type table, and that the dirty
// marks mean what they did, after every step. Mutants come from randomTwin,
// so behaviours recur, die and come back.
func TestTypeTableFollowsEveryStrategyChange(t *testing.T) {
	for mem := 1; mem <= 3; mem++ {
		for _, kind := range []StrategyKind{PureStrategies, MixedStrategies} {
			cfg := testConfig(mem, 6, 0)
			cfg.Kind = kind
			src := rng.New(uint64(40 + mem))
			p := NewPopulation(cfg, src)
			checkTypeTable(t, "new", p)
			for step := 0; step < 400; step++ {
				dirty := append([]bool(nil), p.dirty...)
				var what string
				switch i, j := src.Pair(p.Size()); src.Intn(8) {
				case 0, 1, 2, 3:
					p.SetStrategy(i, randomTwin(cfg, src))
					dirty[i] = true
					what = "SetStrategy"
				default:
					p.Adopt(i, j)
					dirty[i] = true
					what = "Adopt"
				}
				checkTypeTable(t, what, p)
				for k := range dirty {
					if p.dirty[k] != dirty[k] {
						t.Fatalf("%s at step %d: dirty[%d] = %v, want %v", what, step, k, p.dirty[k], dirty[k])
					}
				}
				if src.Intn(4) == 0 {
					p.clearDirty(0)
				}
			}
		}
	}
}

// randomTwin draws a strategy of the run's kind whose behaviour recurs: a
// pure one from the 16 behaviours that depend on the last round alone, as a
// Pure or — in a mixed run, half the time — as the 0/1 Mixed that behaves
// the same; the other half a fresh mixed table.
func randomTwin(cfg Config, src *rng.Source) strategy.Strategy {
	sp := strategy.NewSpace(cfg.Memory)
	if cfg.Kind == MixedStrategies && src.Bernoulli(0.5) {
		return strategy.RandomMixed(sp, src)
	}
	last := strategy.RandomPure(strategy.NewSpace(1), src)
	probs := make([]float64, sp.NumStates())
	pure := strategy.NewPure(sp)
	for st := range probs {
		probs[st] = last.CooperateProb(uint32(st) & 3)
		pure.SetMove(uint32(st), last.MoveAt(uint32(st)&3))
	}
	if cfg.Kind == MixedStrategies && src.Bernoulli(0.5) {
		return strategy.MixedFromProbs(sp, probs)
	}
	return pure
}
