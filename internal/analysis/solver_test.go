package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/cpu/cputest"
	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

var payoff = game.StandardPayoff()

func sp1() strategy.Space { return strategy.NewSpace(1) }

// A pinnedCase is a match-up with its payoffs as Float64bits.
type pinnedCase struct {
	name     string
	s0, s1   strategy.Strategy
	errRate  float64
	pi0, pi1 uint64
}

// pinnedCases are payoffs recorded as Float64bits from MarkovPayoffN at
// commit fccae42, before Solver replaced it: every path of the algorithm
// (cycle walk, ergodic fixed point, Cesàro fallback) at memory 1, 3 and 6.
// Solver is a re-housing of that algorithm, not a new one, so it must
// reproduce them bit for bit — golden hashes cover one workload, this
// covers the rest. The random mixed pairs at memory 2, 4 and 5 were
// recorded at commit 5c5098e, the last Solver whose step scattered, so
// every memory depth has a pinned payoff.
func pinnedCases() []pinnedCase {
	sp2, sp3, sp4, sp5, sp6 := strategy.NewSpace(2), strategy.NewSpace(3), strategy.NewSpace(4), strategy.NewSpace(5), strategy.NewSpace(6)
	flip, _ := strategy.ParsePure("1000") // CC -> D, CD/DC/DD -> C
	r21, r23, r24, r25, r31 := rng.New(21), rng.New(23), rng.New(24), rng.New(25), rng.New(31)
	r22, r26, r27 := rng.New(22), rng.New(26), rng.New(27)
	pure3 := strategy.RandomPure(sp3, r31)
	// twin is pure3 as a degenerate mixed strategy: same behaviour table,
	// so every payoff against it must equal pure3's.
	twin := strategy.NewMixed(sp3)
	for st := 0; st < sp3.NumStates(); st++ {
		twin.SetProb(uint32(st), pure3.CooperateProb(uint32(st)))
	}
	other3 := strategy.RandomPure(sp3, r31)
	return []pinnedCase{
		{"m1 WSLS-ALLD cycle", strategy.WSLS(sp1()), strategy.AllD(sp1()), 0, 0x3fe0000000000000, 0x4004000000000000},
		{"m1 TFT-TFT ergodic", strategy.TFT(sp1()), strategy.TFT(sp1()), 0.01, 0x4000000000002455, 0x4000000000002455},
		{"m1 flip-flip cesaro", flip, flip, 1e-12, 0x3fffffffffffffff, 0x3fffffffffffffff},
		{"m1 GTFT-WSLS ergodic", strategy.GTFT(sp1(), 1.0/3.0), strategy.WSLS(sp1()), 0.01, 0x4005d23a4157b9d1, 0x4006d6008f1840a8},
		{"m1 random mixed", strategy.RandomMixed(sp1(), r21), strategy.RandomMixed(sp1(), r21), 0.02, 0x40009e8fe1e2765f, 0x3ffe9ccba7c566c6},
		{"m2 random mixed", strategy.RandomMixed(sp2, r22), strategy.RandomMixed(sp2, r22), 0.01, 0x40039d8465a162b1, 0x3ff9f3fb08cc1a84},
		{"m3 pure-pure cycle", pure3, other3, 0, 0x4008000000000000, 0x4008000000000000},
		{"m3 twin-pure cycle", twin, other3, 0, 0x4008000000000000, 0x4008000000000000},
		{"m3 pure-twin noisy", other3, twin, 0.05, 0x3ffabc4673e0876d, 0x400142125d7b910e},
		{"m3 random mixed", strategy.RandomMixed(sp3, r23), strategy.RandomMixed(sp3, r23), 0.05, 0x3ffe41e3e8a6e317, 0x4000194b8a71025f},
		{"m3 WSLS-TFT ergodic", strategy.WSLS(sp3), strategy.TFT(sp3), 0.01, 0x4000000000000d92, 0x4000000000000d94},
		{"m3 WSLS-ALLD cesaro", strategy.WSLS(sp3), strategy.AllD(sp3), 1e-12, 0x3fe00000000054ac, 0x4004000000002378},
		{"m3 pure-mixed noiseless", pure3, strategy.RandomMixed(sp3, r23), 0, 0x40014236809568f6, 0x3ffd114a0ad26d32},
		{"m4 random mixed", strategy.RandomMixed(sp4, r26), strategy.RandomMixed(sp4, r26), 0.01, 0x3ffed2267c8d670c, 0x4000582ab64838f7},
		{"m5 random mixed", strategy.RandomMixed(sp5, r27), strategy.RandomMixed(sp5, r27), 0.01, 0x400070472fc978a5, 0x3fff9382d97bee62},
		{"m6 pure-pure cycle", strategy.RandomPure(sp6, r24), strategy.RandomPure(sp6, r24), 0, 0x3ff5555555555555, 0x4005555555555555},
		{"m6 random mixed", strategy.RandomMixed(sp6, r25), strategy.RandomMixed(sp6, r25), 0.01, 0x3fffdd9c27e6a800, 0x3fffe97f75c3d5b6},
	}
}

func TestSolverPinnedBits(t *testing.T) {
	withEachStep(t, func(kernel string) {
		// One solver per space, reused across cases and paths, so state left
		// by one solve (seen marks, swapped buffers) must not leak into the
		// next.
		solvers := map[strategy.Space]*Solver{}
		for _, c := range pinnedCases() {
			sp := c.s0.Space()
			if solvers[sp] == nil {
				solvers[sp] = NewSolver(sp)
			}
			for pass := 0; pass < 2; pass++ {
				pi0, pi1, err := solvers[sp].Payoff(payoff, c.s0, c.s1, c.errRate)
				if err != nil {
					t.Fatalf("%s, %s step: %v", c.name, kernel, err)
				}
				if math.Float64bits(pi0) != c.pi0 || math.Float64bits(pi1) != c.pi1 {
					t.Errorf("%s, %s step, pass %d: payoffs (%#x,%#x) = (%v,%v), pinned (%#x,%#x)",
						c.name, kernel, pass, math.Float64bits(pi0), math.Float64bits(pi1), pi0, pi1, c.pi0, c.pi1)
				}
			}
		}
	})
}

// scatterStep is Solver.step as it was before the gather (commit 5c5098e),
// kept as the reference the gather must match bit for bit: each state with
// mass pushes mass·P(m) to the successor of each joint move m, states in
// ascending order, moves of probability 0 skipped.
func scatterStep(s *Solver) {
	clear(s.next)
	for st, mass := range s.cur {
		if mass == 0 {
			continue
		}
		for m := 0; m < 4; m++ {
			pm := s.p0[st]
			if m>>1 == 1 {
				pm = 1 - s.p0[st]
			}
			po := s.p1[st]
			if m&1 == 1 {
				po = 1 - s.p1[st]
			}
			if pr := pm * po; pr > 0 {
				s.next[s.successor(uint32(st), m)] += mass * pr
			}
		}
	}
	s.cur, s.next = s.next, s.cur
}

// withEachStep runs f once with the solver set to each step kernel this
// CPU can run — the Go gather, and the vector step where the CPU has AVX —
// and restores the CPU's choice after. On amd64 it first fails the test
// when /proc/cpuinfo lists avx but the probe does not see it, or when the
// CPU has AVX but the solver steps in Go (cputest.EachKernel).
func withEachStep(t *testing.T, f func(kernel string)) {
	t.Helper()
	avx, _ := cpu.Probe()
	cputest.EachKernel(t, "analysis.Solver.step", &cpu.AVX, avx, []string{"avx"}, func(on bool) {
		kernel := "go"
		if on {
			kernel = "avx"
		}
		f(kernel)
	})
}

// TestGatherStepMatchesScatter holds each step kernel to the scatter the
// gather replaced: from the same distribution both give the same bits in
// every state after every step, at memory 1–6 and five error rates, on
// random mixed pairs and on degenerate-mixed pairs whose exact 0 and 1
// entries make moves of probability 0.
func TestGatherStepMatchesScatter(t *testing.T) {
	const steps = 64
	withEachStep(t, func(kernel string) {
		master := rng.New(33)
		// degenerate is a random mixed strategy with about a third of its
		// entries set to 0 and a third to 1. State 0 keeps its random entry,
		// so a pair of them is never deterministic and load builds the table.
		degenerate := func(sp strategy.Space) *strategy.Mixed {
			m := strategy.RandomMixed(sp, master)
			for st := 1; st < sp.NumStates(); st++ {
				if c := master.Intn(3); c < 2 {
					m.SetProb(uint32(st), float64(c))
				}
			}
			return m
		}
		for mem := 1; mem <= 6; mem++ {
			sp := strategy.NewSpace(mem)
			gather, scatter := NewSolver(sp), NewSolver(sp)
			for _, errRate := range []float64{0, 1e-12, 0.01, 0.05, 0.5} {
				for _, kind := range []string{"random mixed", "degenerate mixed"} {
					s0, s1 := strategy.RandomMixed(sp, master), strategy.RandomMixed(sp, master)
					if kind == "degenerate mixed" {
						s0, s1 = degenerate(sp), degenerate(sp)
					}
					for _, solver := range []*Solver{gather, scatter} {
						if solver.load(s0, s1, errRate) {
							t.Fatalf("memory %d, %s, error %v: deterministic pair", mem, kind, errRate)
						}
						clear(solver.cur)
						solver.cur[sp.InitialState()] = 1
					}
					for step := 1; step <= steps; step++ {
						gather.step()
						scatterStep(scatter)
						for st := range gather.cur {
							if g, s := math.Float64bits(gather.cur[st]), math.Float64bits(scatter.cur[st]); g != s {
								t.Fatalf("memory %d, %s, error %v, step %d, state %d: %s step %#x, scatter %#x",
									mem, kind, errRate, step, st, kernel, g, s)
							}
						}
					}
				}
			}
		}
	})
}

// TestVectorStepMatchesGoOnPayoff solves random pairs at memory 1–6 and
// three error rates, and the Cesàro fallback chain of
// TestMarkovNearPeriodicChainCesaro, once with each step kernel: every
// payoff has the same bits.
func TestVectorStepMatchesGoOnPayoff(t *testing.T) {
	flip, err := strategy.ParsePure("1000")
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		s0, s1  strategy.Strategy
		errRate float64
	}
	pairs := []pair{{flip, flip, 1e-12}}
	master := rng.New(43)
	for mem := 1; mem <= 6; mem++ {
		sp := strategy.NewSpace(mem)
		for _, errRate := range []float64{0, 0.01, 0.5} {
			for i := 0; i < 3; i++ {
				pairs = append(pairs, pair{strategy.RandomMixed(sp, master), strategy.RandomMixed(sp, master), errRate})
			}
		}
	}
	got := map[string][][2]uint64{}
	withEachStep(t, func(kernel string) {
		for _, p := range pairs {
			pi0, pi1, err := NewSolver(p.s0.Space()).Payoff(payoff, p.s0, p.s1, p.errRate)
			if err != nil {
				t.Fatal(err)
			}
			got[kernel] = append(got[kernel], [2]uint64{math.Float64bits(pi0), math.Float64bits(pi1)})
		}
	})
	for kernel, bits := range got {
		for i, b := range bits {
			if g := got["go"][i]; b != g {
				t.Errorf("pair %d (memory %d, error %v): %s payoffs %#x, go %#x",
					i, pairs[i].s0.Space().Memory(), pairs[i].errRate, kernel, b, g)
			}
		}
	}
}

func TestSolverReusedAllocatesNothing(t *testing.T) {
	sp := strategy.NewSpace(3)
	master := rng.New(41)
	solver := NewSolver(sp)
	for _, c := range []struct {
		name    string
		s0, s1  strategy.Strategy
		errRate float64
	}{
		{"stochastic", strategy.RandomMixed(sp, master), strategy.RandomMixed(sp, master), 0.01},
		{"deterministic", strategy.RandomPure(sp, master), strategy.RandomPure(sp, master), 0},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := solver.Payoff(payoff, c.s0, c.s1, c.errRate); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s pair: %v allocations per solve on a reused Solver, want 0", c.name, allocs)
		}
	}
}

func TestMarkovKnownMatchups(t *testing.T) {
	solver := NewSolver(sp1())
	cases := []struct {
		name     string
		s0, s1   strategy.Strategy
		pi0, pi1 float64
	}{
		{"ALLC vs ALLC", strategy.AllC(sp1()), strategy.AllC(sp1()), 3, 3},
		{"ALLD vs ALLC", strategy.AllD(sp1()), strategy.AllC(sp1()), 4, 0},
		{"ALLD vs ALLD", strategy.AllD(sp1()), strategy.AllD(sp1()), 1, 1},
		{"TFT vs TFT", strategy.TFT(sp1()), strategy.TFT(sp1()), 3, 3},
		{"WSLS vs WSLS", strategy.WSLS(sp1()), strategy.WSLS(sp1()), 3, 3},
		// WSLS vs ALLD alternates C and D: payoffs average (0+1)/2 vs (4+1)/2.
		{"WSLS vs ALLD", strategy.WSLS(sp1()), strategy.AllD(sp1()), 0.5, 2.5},
	}
	for _, c := range cases {
		pi0, pi1, err := solver.Payoff(payoff, c.s0, c.s1, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if pi0 != c.pi0 || pi1 != c.pi1 {
			t.Errorf("%s: payoffs (%v,%v), want (%v,%v)", c.name, pi0, pi1, c.pi0, c.pi1)
		}
	}
}

func TestMarkovValidation(t *testing.T) {
	solver := NewSolver(sp1())
	allc1, allc2 := strategy.AllC(sp1()), strategy.AllC(strategy.NewSpace(2))
	if _, _, err := solver.Payoff(payoff, allc2, allc2, 0); err == nil {
		t.Fatal("strategies of another space accepted")
	}
	if _, _, err := solver.Payoff(payoff, allc1, allc2, 0); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
	for _, bad := range []float64{1.5, -0.1, math.NaN()} {
		if _, _, err := solver.Payoff(payoff, allc1, allc1, bad); err == nil {
			t.Fatalf("error rate %v accepted", bad)
		}
	}
}

func TestMarkovPayoffNValidation(t *testing.T) {
	if _, _, err := MarkovPayoffN(payoff, strategy.AllC(sp1()), strategy.AllC(strategy.NewSpace(2)), 0); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
	if _, _, err := MarkovPayoffN(payoff, strategy.AllC(sp1()), strategy.AllC(sp1()), -0.1); err == nil {
		t.Fatal("negative error rate accepted")
	}
}

func TestMarkovErrorsDegradeTFTNotWSLS(t *testing.T) {
	// The paper's §III-E claim, exactly: under errors TFT self-play payoff
	// collapses toward the alternating average while WSLS self-play stays
	// near R.
	solver := NewSolver(sp1())
	tft := strategy.TFT(sp1())
	wsls := strategy.WSLS(sp1())
	const e = 0.01
	tftPi, _, err := solver.Payoff(payoff, tft, tft, e)
	if err != nil {
		t.Fatal(err)
	}
	wslsPi, _, err := solver.Payoff(payoff, wsls, wsls, e)
	if err != nil {
		t.Fatal(err)
	}
	if wslsPi <= tftPi {
		t.Fatalf("WSLS self-play %v should exceed TFT self-play %v at 1%% errors", wslsPi, tftPi)
	}
	if wslsPi < 2.8 {
		t.Fatalf("WSLS self-play payoff %v, want near 3", wslsPi)
	}
	// TFT with errors: the pair spends equal time in all four states in
	// the limit of the error-driven chain -> payoff -> 2.0.
	if math.Abs(tftPi-2.0) > 0.1 {
		t.Fatalf("TFT self-play payoff %v, want near 2.0", tftPi)
	}
}

func TestMarkovMatchesSampledEngine(t *testing.T) {
	// Ground truth vs the sampled engine: long sampled matches converge to
	// the Markov payoff for random mixed strategies with errors.
	master := rng.New(3)
	solver := NewSolver(sp1())
	rules := game.DefaultRules()
	rules.Rounds = 200000
	rules.ErrorRate = 0.02
	for trial := 0; trial < 5; trial++ {
		s0 := strategy.RandomMixed(sp1(), master)
		s1 := strategy.RandomMixed(sp1(), master)
		exact0, exact1, err := solver.Payoff(rules.Payoff, s0, s1, rules.ErrorRate)
		if err != nil {
			t.Fatal(err)
		}
		res := game.Play(rules, s0, s1, master)
		if math.Abs(res.Mean0()-exact0) > 0.02 || math.Abs(res.Mean1()-exact1) > 0.02 {
			t.Errorf("trial %d: sampled (%v,%v) vs exact (%v,%v)",
				trial, res.Mean0(), res.Mean1(), exact0, exact1)
		}
	}
}

func TestMarkovPayoffSumProperty(t *testing.T) {
	// Joint payoff per round is bounded by [2P', 2R] envelope: between the
	// worst (both sucker/punish mix) and best joint outcomes: in [1+0, 3+3].
	solver := NewSolver(sp1())
	f := func(seed uint64) bool {
		master := rng.New(seed)
		s0 := strategy.RandomMixed(sp1(), master)
		s1 := strategy.RandomMixed(sp1(), master)
		pi0, pi1, err := solver.Payoff(payoff, s0, s1, 0.01)
		if err != nil {
			return false
		}
		sum := pi0 + pi1
		return sum >= 2*payoff.P-1e-9 && sum <= 2*payoff.R+1e-9 || sum >= payoff.S+payoff.T-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMarkovSymmetry(t *testing.T) {
	// Swapping the players swaps the payoffs, at every memory depth.
	for _, mem := range []int{1, 2, 3} {
		sp := strategy.NewSpace(mem)
		solver := NewSolver(sp)
		f := func(seed uint64) bool {
			master := rng.New(seed)
			s0 := strategy.RandomMixed(sp, master)
			s1 := strategy.RandomMixed(sp, master)
			a0, a1, err := solver.Payoff(payoff, s0, s1, 0.05)
			if err != nil {
				return false
			}
			b0, b1, err := solver.Payoff(payoff, s1, s0, 0.05)
			if err != nil {
				return false
			}
			return math.Abs(a0-b1) < 1e-6 && math.Abs(a1-b0) < 1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("memory %d: %v", mem, err)
		}
	}
}

func TestMarkovNearPeriodicChainCesaro(t *testing.T) {
	// A "flip" strategy oscillates CC -> DD -> CC deterministically; with a
	// vanishing error rate the chain is nearly periodic, the fixed-point
	// fast path cannot converge, and the Cesàro fallback must deliver the
	// period average: payoffs (R + P)/2 = 2.
	flip, err := strategy.ParsePure("1000") // CC -> D, CD/DC/DD -> C
	if err != nil {
		t.Fatal(err)
	}
	pi0, pi1, err := NewSolver(sp1()).Payoff(payoff, flip, flip, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi0-2) > 0.01 || math.Abs(pi1-2) > 0.01 {
		t.Fatalf("near-periodic self-play payoffs (%v,%v), want ~2", pi0, pi1)
	}
}

func TestExactPureKnownMatchups(t *testing.T) {
	// Error-free play between pure strategies is the exact cycle average at
	// every memory depth.
	for _, mem := range []int{1, 2, 3} {
		sp := strategy.NewSpace(mem)
		solver := NewSolver(sp)
		pi0, pi1, err := solver.Payoff(payoff, strategy.TFT(sp), strategy.AllD(sp), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Long-run: TFT defects forever after round 1 -> cycle payoff (1,1).
		if pi0 != 1 || pi1 != 1 {
			t.Errorf("memory %d TFT vs ALLD long-run (%v,%v), want (1,1)", mem, pi0, pi1)
		}
		pi0, pi1, err = solver.Payoff(payoff, strategy.WSLS(sp), strategy.AllD(sp), 0)
		if err != nil {
			t.Fatal(err)
		}
		if pi0 != 0.5 || pi1 != 2.5 {
			t.Errorf("memory %d WSLS vs ALLD long-run (%v,%v), want (0.5,2.5)", mem, pi0, pi1)
		}
	}
}

func TestExactPureMatchesLongSampledGame(t *testing.T) {
	// For any memory depth, a long sampled game's mean converges to the
	// cycle average (transient contributions vanish).
	master := rng.New(6)
	rules := game.DefaultRules()
	rules.Rounds = 100000
	for _, mem := range []int{2, 4, 6} {
		sp := strategy.NewSpace(mem)
		s0 := strategy.RandomPure(sp, master)
		s1 := strategy.RandomPure(sp, master)
		e0, e1, err := NewSolver(sp).Payoff(rules.Payoff, s0, s1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := game.Play(rules, s0, s1, master)
		if math.Abs(res.Mean0()-e0) > 0.01 || math.Abs(res.Mean1()-e1) > 0.01 {
			t.Errorf("memory %d: sampled (%v,%v) vs exact (%v,%v)", mem, res.Mean0(), res.Mean1(), e0, e1)
		}
	}
}

func TestMarkovPayoffNMatchesMemoryOne(t *testing.T) {
	// A memory-one strategy lifted to memory three (it reads only the last
	// round of the deeper state) plays the same game, so the 64-state chain
	// must reproduce the 4-state chain's payoffs: a check of the state
	// indexing, Opposing and successor arithmetic at depth against the
	// memory-one case the known-value tests pin.
	sp3 := strategy.NewSpace(3)
	lift := func(m *strategy.Mixed) *strategy.Mixed {
		out := strategy.NewMixed(sp3)
		for st := 0; st < sp3.NumStates(); st++ {
			out.SetProb(uint32(st), m.CooperateProb(uint32(st&3)))
		}
		return out
	}
	master := rng.New(21)
	for trial := 0; trial < 20; trial++ {
		s0 := strategy.RandomMixed(sp1(), master)
		s1 := strategy.RandomMixed(sp1(), master)
		a0, a1, err := MarkovPayoffN(payoff, s0, s1, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		b0, b1, err := MarkovPayoffN(payoff, lift(s0), lift(s1), 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a0-b0) > 1e-9 || math.Abs(a1-b1) > 1e-9 {
			t.Fatalf("trial %d: memory one (%v,%v) vs lifted (%v,%v)", trial, a0, a1, b0, b1)
		}
	}
}

func TestMarkovPayoffNHigherMemoryWithErrors(t *testing.T) {
	// Memory-two WSLS self-play under errors must stay near R (the same
	// error-correction property as memory one), validated against a long
	// sampled game.
	sp := strategy.NewSpace(2)
	wsls := strategy.WSLS(sp)
	e0, e1, err := MarkovPayoffN(payoff, wsls, wsls, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e0-e1) > 1e-9 {
		t.Fatalf("symmetric self-play asymmetric: %v vs %v", e0, e1)
	}
	if e0 < 2.85 {
		t.Fatalf("memory-2 WSLS self-play payoff %v, want near 3", e0)
	}
	rules := game.DefaultRules()
	rules.Rounds = 400000
	rules.ErrorRate = 0.01
	res := game.Play(rules, wsls, wsls, rng.New(5))
	if math.Abs(res.Mean0()-e0) > 0.02 {
		t.Fatalf("sampled %v vs exact %v", res.Mean0(), e0)
	}
}

func TestMarkovPayoffNRandomMixedMemoryThreeMatchesSampled(t *testing.T) {
	sp := strategy.NewSpace(3)
	master := rng.New(23)
	s0 := strategy.RandomMixed(sp, master)
	s1 := strategy.RandomMixed(sp, master)
	e0, e1, err := MarkovPayoffN(payoff, s0, s1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rules := game.DefaultRules()
	rules.Rounds = 400000
	rules.ErrorRate = 0.05
	res := game.Play(rules, s0, s1, master)
	if math.Abs(res.Mean0()-e0) > 0.02 || math.Abs(res.Mean1()-e1) > 0.02 {
		t.Fatalf("sampled (%v,%v) vs exact (%v,%v)", res.Mean0(), res.Mean1(), e0, e1)
	}
}

func TestMarkovPayoffNMemorySixDeterministic(t *testing.T) {
	// Memory six, deterministic: should terminate promptly via cycle
	// detection over at most 4096 joint states.
	sp := strategy.NewSpace(6)
	master := rng.New(24)
	s0 := strategy.RandomPure(sp, master)
	s1 := strategy.RandomPure(sp, master)
	pi0, pi1, err := MarkovPayoffN(payoff, s0, s1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pi0 < 0 || pi0 > 4 || pi1 < 0 || pi1 > 4 {
		t.Fatalf("payoffs out of range: %v, %v", pi0, pi1)
	}
}

func BenchmarkSolver(b *testing.B) {
	for _, bc := range []struct {
		name    string
		memory  int
		errRate float64
	}{
		{"m1", 1, 0.01}, {"m2", 2, 0.01}, {"m3", 3, 0.01}, {"m4", 4, 0.01}, {"m5", 5, 0.01}, {"m6", 6, 0.01},
		{"m3pure", 3, 0}, {"m6pure", 6, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sp := strategy.NewSpace(bc.memory)
			master := rng.New(25)
			var s0, s1 strategy.Strategy = strategy.RandomMixed(sp, master), strategy.RandomMixed(sp, master)
			if bc.errRate == 0 {
				s0, s1 = strategy.RandomPure(sp, master), strategy.RandomPure(sp, master)
			}
			solver := NewSolver(sp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.Payoff(payoff, s0, s1, bc.errRate); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
