package perfmodel

import (
	"math"
	"testing"

	"repro/internal/game"
)

func paperSpec(memory int) StrongScalingSpec {
	return StrongScalingSpec{
		SSets:       1024,
		Memory:      memory,
		Generations: 1000,
		PCRate:      0.01,
		Machine:     BlueGeneL(),
		Cal:         PaperCalibration(),
	}
}

func TestMachineDescriptions(t *testing.T) {
	l, p := BlueGeneL(), BlueGeneP()
	if l.ClockHz != 700e6 || p.ClockHz != 850e6 {
		t.Fatal("clock speeds wrong")
	}
	if p.ProcsPerRack != 4096 || l.ProcsPerRack != 2048 {
		t.Fatal("procs per rack wrong")
	}
	if Host(0).ClockHz != 3e9 {
		t.Fatal("host default clock wrong")
	}
	if Host(2e9).ClockHz != 2e9 {
		t.Fatal("host explicit clock ignored")
	}
}

func TestPaperCalibrationShape(t *testing.T) {
	c := PaperCalibration()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table VI's signature jumps: memory-two ≫ memory-one; memory-five ≫
	// memory-four; memory-three only slightly above memory-two.
	if c.GameSeconds[2]/c.GameSeconds[1] < 20 {
		t.Errorf("mem2/mem1 cost ratio %v, want large", c.GameSeconds[2]/c.GameSeconds[1])
	}
	if r := c.GameSeconds[3] / c.GameSeconds[2]; r < 1.0 || r > 1.3 {
		t.Errorf("mem3/mem2 ratio %v, want slight", r)
	}
	if r := c.GameSeconds[5] / c.GameSeconds[4]; r < 2 {
		t.Errorf("mem5/mem4 ratio %v, want > 2", r)
	}
}

func TestCalibrationScaled(t *testing.T) {
	c := PaperCalibration()
	s := c.Scaled(BlueGeneP())
	// Faster clock -> cheaper games, by the clock ratio.
	want := c.GameSeconds[3] * 700e6 / 850e6
	if math.Abs(s.GameSeconds[3]-want) > 1e-15 {
		t.Fatalf("scaled cost %v, want %v", s.GameSeconds[3], want)
	}
	if s.ClockHz != 850e6 {
		t.Fatal("scaled clock wrong")
	}
}

func TestCalibrationValidate(t *testing.T) {
	var bad Calibration
	if bad.Validate() == nil {
		t.Fatal("zero calibration accepted")
	}
	c := PaperCalibration()
	c.GameSeconds[4] = c.GameSeconds[3] / 2
	if c.Validate() == nil {
		t.Fatal("non-monotone calibration accepted")
	}
}

func TestHostCalibrationMeasures(t *testing.T) {
	rules := game.DefaultRules()
	rules.Rounds = 50
	c, err := HostCalibration(rules, 3, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// The search engine's memory-six games must be far costlier than
	// memory-one (the Fig. 4 mechanism).
	if c.GameSeconds[6] < 10*c.GameSeconds[1] {
		t.Errorf("search cost mem6 %v vs mem1 %v: growth too small", c.GameSeconds[6], c.GameSeconds[1])
	}
	if _, err := HostCalibration(rules, 0, false, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
	bad := rules
	bad.Rounds = 0
	if _, err := HostCalibration(bad, 1, false, 1); err == nil {
		t.Fatal("bad rules accepted")
	}
}

func TestStrongScalingMonotoneDecreasing(t *testing.T) {
	s := paperSpec(6)
	prev := math.Inf(1)
	for _, p := range []int{128, 256, 512, 1024, 2048} {
		tm, err := s.Runtime(p)
		if err != nil {
			t.Fatal(err)
		}
		if tm >= prev {
			t.Fatalf("runtime not decreasing at P=%d: %v >= %v", p, tm, prev)
		}
		prev = tm
	}
}

func TestStrongScalingRegeneratesTableVIAnchor(t *testing.T) {
	// The paper calibration is fitted at 128 processors, so the model must
	// reproduce Table VI's 128-processor column nearly exactly, and the
	// rest of the row within a small factor (shape, not absolute match).
	paper128 := map[int]float64{1: 26.5, 2: 2207, 3: 2401, 4: 3079, 5: 7903, 6: 8690}
	for mem, want := range paper128 {
		tm, err := paperSpec(mem).Runtime(128)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tm-want)/want > 0.05 {
			t.Errorf("memory %d at 128 procs: model %v s, paper %v s", mem, tm, want)
		}
	}
	// Paper's 2048-processor column, within a factor of 3 (the paper's own
	// speedups here are strongly imbalance-dominated).
	paper2048 := map[int]float64{1: 4.04, 2: 277, 6: 1097}
	for mem, want := range paper2048 {
		tm, err := paperSpec(mem).Runtime(2048)
		if err != nil {
			t.Fatal(err)
		}
		if tm > want*3 || tm < want/3 {
			t.Errorf("memory %d at 2048 procs: model %v s, paper %v s (>3x off)", mem, tm, want)
		}
	}
}

func TestStrongScalingEfficiencyRoughlyFlatInMemory(t *testing.T) {
	// Fig. 3: memory depth has only a small impact on efficiency.
	for _, mem := range []int{2, 4, 6} {
		s := paperSpec(mem)
		t128, _ := s.Runtime(128)
		t1024, _ := s.Runtime(1024)
		eff := Efficiency(128, t128, 1024, t1024)
		if eff < 0.5 || eff > 1.05 {
			t.Errorf("memory %d: efficiency at 1024 procs = %v", mem, eff)
		}
	}
}

func TestPopulationEfficiencyGrowsWithSSets(t *testing.T) {
	// Fig. 5: more SSets per processor -> better strong scaling.
	effFor := func(ssets int) float64 {
		s := StrongScalingSpec{
			SSets: ssets, Memory: 1, Generations: 1000, PCRate: 0.01,
			Machine: BlueGeneL(), Cal: PaperCalibration(),
		}
		t256, err := s.Runtime(256)
		if err != nil {
			t.Fatal(err)
		}
		t2048, err := s.Runtime(2048)
		if err != nil {
			t.Fatal(err)
		}
		return Efficiency(256, t256, 2048, t2048)
	}
	small := effFor(1024)
	large := effFor(32768)
	if large <= small {
		t.Fatalf("efficiency should grow with population: %v (1k SSets) vs %v (32k)", small, large)
	}
	if large < 0.9 {
		t.Errorf("32k-SSet efficiency %v, want near-ideal", large)
	}
}

func TestTableVIIQuadraticGrowth(t *testing.T) {
	// Table VII: runtime grows ~quadratically with the SSet count.
	base := StrongScalingSpec{
		SSets: 1024, Memory: 1, Generations: 1000, PCRate: 0.01,
		Machine: BlueGeneL(), Cal: PaperCalibration(),
	}
	t1, _ := base.Runtime(256)
	base.SSets = 2048
	t2, _ := base.Runtime(256)
	base.SSets = 4096
	t4, _ := base.Runtime(256)
	if r := t2 / t1; r < 3.5 || r > 4.5 {
		t.Errorf("2x SSets gave %vx runtime, want ~4x", r)
	}
	if r := t4 / t2; r < 3.5 || r > 4.5 {
		t.Errorf("2x SSets gave %vx runtime, want ~4x", r)
	}
}

func TestWeakScalingFlat(t *testing.T) {
	// Fig. 6: runtime drift across 1,024 -> 262,144 processors stays tiny.
	w := WeakScalingSpec{
		SSetsPerProc: 4096, GamesPerSSet: 1, Memory: 6, Generations: 1000,
		PCRate: 0.01, Machine: BlueGeneP(), Cal: PaperCalibration(),
	}
	t1k, err := w.Runtime(1024)
	if err != nil {
		t.Fatal(err)
	}
	t262k, err := w.Runtime(262144)
	if err != nil {
		t.Fatal(err)
	}
	drift := t262k - t1k
	if drift < 0 {
		t.Fatalf("weak scaling improved with procs? drift %v", drift)
	}
	if drift > 1.0 {
		t.Fatalf("weak scaling drift %v s, paper reports <= 1 s", drift)
	}
	if eff := WeakEfficiency(t1k, t262k); eff < 0.95 {
		t.Fatalf("weak efficiency %v", eff)
	}
}

func TestWeakScalingHeadlineNumbers(t *testing.T) {
	w := WeakScalingSpec{
		SSetsPerProc: 4096, GamesPerSSet: 1, Memory: 6, Generations: 1000,
		PCRate: 0.01, Machine: BlueGeneP(), Cal: PaperCalibration(),
	}
	if got := w.TotalSSets(262144); got != 1073741824 {
		t.Fatalf("total SSets = %d, paper says 1,073,741,824", got)
	}
	// O(10^18) agents.
	agents := w.TotalAgents(262144)
	if agents < 1e18 || agents >= 1.2e18 {
		t.Fatalf("agents = %v, want ~1.15e18", agents)
	}
}

func TestFig7StrongScalingLargeSystems(t *testing.T) {
	// Fig. 7's shape: ~99% efficiency through 16,384 procs, >= ~75% at
	// 262,144, and a further drop at the non-power-of-two 294,912.
	// The population must exceed the largest processor count so every
	// worker owns at least one SSet row (the paper notes the 64-rack run
	// was already at a low SSets-per-processor ratio).
	s := StrongScalingSpec{
		SSets: 1 << 21, Memory: 6, Generations: 100, PCRate: 0.01,
		Machine: BlueGeneP(), Cal: PaperCalibration(),
	}
	t1k, err := s.Runtime(1024)
	if err != nil {
		t.Fatal(err)
	}
	t16k, _ := s.Runtime(16384)
	t262k, _ := s.Runtime(262144)
	t294k, _ := s.Runtime(294912)
	if eff := Efficiency(1024, t1k, 16384, t16k); eff < 0.97 {
		t.Errorf("16k efficiency %v, paper ~0.99", eff)
	}
	eff262 := Efficiency(1024, t1k, 262144, t262k)
	if eff262 < 0.70 || eff262 > 0.95 {
		t.Errorf("262k efficiency %v, paper ~0.82", eff262)
	}
	eff294 := Efficiency(1024, t1k, 294912, t294k)
	if eff294 >= eff262 {
		t.Errorf("non-power-of-two should degrade: %v vs %v", eff294, eff262)
	}
	if rel := eff294 / eff262; rel > 0.95 || rel < 0.75 {
		t.Errorf("72-rack relative degradation %v, paper ~15%%", 1-rel)
	}
}

func TestRuntimeValidation(t *testing.T) {
	s := paperSpec(1)
	if _, err := s.Runtime(1); err == nil {
		t.Fatal("1 proc accepted")
	}
	s.Memory = 9
	if _, err := s.Runtime(128); err == nil {
		t.Fatal("memory 9 accepted")
	}
	w := WeakScalingSpec{SSetsPerProc: 0}
	if _, err := w.Runtime(4); err == nil {
		t.Fatal("0 SSets/proc accepted")
	}
	var bad StrongScalingSpec
	if bad.Validate() == nil {
		t.Fatal("zero spec accepted")
	}
}

func TestSpeedupAndEfficiencyHelpers(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Fatal("speedup wrong")
	}
	if !math.IsInf(Speedup(10, 0), 1) {
		t.Fatal("zero-time speedup not inf")
	}
	if Efficiency(128, 100, 256, 50) != 1.0 {
		t.Fatal("perfect efficiency wrong")
	}
	if Efficiency(128, 100, 256, 100) != 0.5 {
		t.Fatal("half efficiency wrong")
	}
	if Efficiency(0, 1, 1, 1) != 0 || Efficiency(1, 1, 1, 0) != 0 {
		t.Fatal("degenerate efficiency not zero")
	}
	if WeakEfficiency(5, 10) != 0.5 || WeakEfficiency(5, 0) != 0 {
		t.Fatal("weak efficiency wrong")
	}
}
