package game

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/strategy"
)

// TestPlayPureBitIdentical pins the kernel's determinism contract: for every
// memory depth the bit-packed path must reproduce Play (and the
// paper-faithful SearchEngine) bit for bit, fitness included — the cache
// stores these numbers, so any ULP drift would make cache-on and cache-off
// runs diverge.
func TestPlayPureBitIdentical(t *testing.T) {
	src := rng.New(42)
	rules := DefaultRules()
	for n := 1; n <= strategy.MaxMemory; n++ {
		sp := strategy.NewSpace(n)
		eng := NewSearchEngine(sp)
		for trial := 0; trial < 20; trial++ {
			s0 := strategy.RandomPure(sp, src)
			s1 := strategy.RandomPure(sp, src)
			want := Play(rules, s0, s1, src)
			got := PlayPure(rules, s0, s1)
			if got != want {
				t.Fatalf("memory %d trial %d: PlayPure %+v != Play %+v", n, trial, got, want)
			}
			if g, w := PlayPure(tally(rules), s0, s1), Play(tally(rules), s0, s1, src); g != w {
				t.Fatalf("memory %d trial %d: PlayPure moved differently from Play: tallies %+v != %+v", n, trial, g, w)
			}
			if n <= 3 { // linear search is O(4^n·n) per round; keep it tractable
				se := eng.Play(rules, s0, s1, src)
				if se != want {
					t.Fatalf("memory %d trial %d: SearchEngine %+v != Play %+v", n, trial, se, want)
				}
			}
		}
	}
}

// TestPayoffAccumulationOrder is the float-sensitivity regression: with
// payoff values that are not exactly representable in binary (0.1-style
// decimals) any reassociation of the per-round additions — vectorising,
// cycle extrapolation, pairwise summation — would change the low bits of
// Fitness. The kernel must add the identical values in the identical round
// order as Play.
func TestPayoffAccumulationOrder(t *testing.T) {
	rules := Rules{
		// T > R > P > S and 2R > T+S, every value a repeating binary fraction.
		Payoff: Payoff{R: 0.3, S: 0.1, T: 0.4, P: 0.2},
		Rounds: 1001, // odd and > any cycle length, so extrapolation shortcuts would show
	}
	if err := rules.Validate(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	for n := 1; n <= 3; n++ {
		sp := strategy.NewSpace(n)
		for trial := 0; trial < 50; trial++ {
			s0 := strategy.RandomPure(sp, src)
			s1 := strategy.RandomPure(sp, src)
			want := Play(rules, s0, s1, src)
			got := PlayPure(rules, s0, s1)
			if got.Fitness0 != want.Fitness0 || got.Fitness1 != want.Fitness1 {
				t.Fatalf("memory %d trial %d: fitness drifted: PlayPure (%v,%v) != Play (%v,%v)",
					n, trial, got.Fitness0, got.Fitness1, want.Fitness0, want.Fitness1)
			}
			if got.Mean0() != want.Mean0() || got.Mean1() != want.Mean1() {
				t.Fatalf("memory %d trial %d: mean payoff drifted", n, trial)
			}
		}
	}
}

// TestPlayPureMirror pins what lets the engine settle both cells of a pair
// from one match: PlayPure(a, b) seen from player 1 is PlayPure(b, a) seen
// from player 0, bit for bit — same move sequence, symmetric Score, same
// round order — at every memory depth, under the default rules and under
// TestPayoffAccumulationOrder's non-representable payoff, where a reordered
// addition would show.
func TestPlayPureMirror(t *testing.T) {
	fractions := Rules{Payoff: Payoff{R: 0.3, S: 0.1, T: 0.4, P: 0.2}, Rounds: 1001}
	if err := fractions.Validate(); err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	for n := 1; n <= strategy.MaxMemory; n++ {
		sp := strategy.NewSpace(n)
		for trial := 0; trial < 40; trial++ {
			a, b := strategy.RandomPure(sp, src), strategy.RandomPure(sp, src)
			for _, rules := range []Rules{DefaultRules(), fractions} {
				ab, ba := PlayPure(rules, a, b), PlayPure(rules, b, a)
				if ab.Fitness1 != ba.Fitness0 || ab.Fitness0 != ba.Fitness1 || ab.Mean1() != ba.Mean0() || ab.Mean0() != ba.Mean1() {
					t.Fatalf("memory %d trial %d, %d rounds: (a,b) = (%v,%v) but (b,a) = (%v,%v)",
						n, trial, rules.Rounds, ab.Fitness0, ab.Fitness1, ba.Fitness0, ba.Fitness1)
				}
			}
			ab0, ab1 := coops(PlayPure(tally(DefaultRules()), a, b))
			ba0, ba1 := coops(PlayPure(tally(DefaultRules()), b, a))
			if ab1 != ba0 || ab0 != ba1 {
				t.Fatalf("memory %d trial %d: cooperation counts are not mirrored", n, trial)
			}
		}
	}
}

// referencePlay is a test-side copy of Play's Strategy-interface loop, taken
// for every pair whatever its kinds: the semantic reference playMixed is held
// to, draw for draw.
func referencePlay(rules Rules, s0, s1 strategy.Strategy, src *rng.Source) Result {
	sp := s0.Space()
	res := Result{Rounds: rules.Rounds}
	st0, st1 := sp.InitialState(), sp.InitialState()
	for r := 0; r < rules.Rounds; r++ {
		m0 := s0.Move(st0, src)
		m1 := s1.Move(st1, src)
		if rules.ErrorRate > 0 {
			if src.Bernoulli(rules.ErrorRate) {
				m0 ^= 1
			}
			if src.Bernoulli(rules.ErrorRate) {
				m1 ^= 1
			}
		}
		f0, f1 := rules.Payoff.Score(m0, m1)
		res.Fitness0 += f0
		res.Fitness1 += f1
		st0 = sp.NextState(st0, m0, m1)
		st1 = sp.NextState(st1, m1, m0)
	}
	return res
}

// edgyMixed draws a mixed strategy in which about a third of the states
// cooperate with probability exactly 0, a third exactly 1, and the rest a
// uniform probability — so the loop meets both of Bernoulli's no-draw edges.
func edgyMixed(sp strategy.Space, src *rng.Source) *strategy.Mixed {
	m := strategy.RandomMixed(sp, src)
	for s := range m.Probs() {
		switch src.Intn(3) {
		case 0:
			m.SetProb(uint32(s), 0)
		case 1:
			m.SetProb(uint32(s), 1)
		}
	}
	return m
}

// TestPlayMixedMatchesInterfaceLoop pins the concrete Mixed×Mixed loop to the
// interface loop: at every memory depth, error rate {0, 0.01, 0.5, 1},
// uniform tables and tables with exact 0/1 probabilities, and 1, 200 and 1001
// rounds (the last under TestPayoffAccumulationOrder's non-representable
// payoff) plus 200 under the tally payoff, which counts the moves, the Result
// is equal and the caller's stream is left at the same draw.
func TestPlayMixedMatchesInterfaceLoop(t *testing.T) {
	fractions := Payoff{R: 0.3, S: 0.1, T: 0.4, P: 0.2}
	lengths := []struct {
		rounds int
		payoff Payoff
	}{{1, StandardPayoff()}, {DefaultRounds, StandardPayoff()}, {1001, fractions}, {DefaultRounds, tally(DefaultRules()).Payoff}}
	src := rng.New(30)
	for n := 1; n <= strategy.MaxMemory; n++ {
		sp := strategy.NewSpace(n)
		for trial := 0; trial < 6; trial++ {
			draw := strategy.RandomMixed
			if trial%2 == 1 {
				draw = edgyMixed
			}
			a, b := draw(sp, src), draw(sp, src)
			for _, eps := range []float64{0, 0.01, 0.5, 1} {
				for _, l := range lengths {
					rules := Rules{Payoff: l.payoff, Rounds: l.rounds, ErrorRate: eps}
					seed := src.Uint64()
					wantSrc, gotSrc := rng.New(seed), rng.New(seed)
					want := referencePlay(rules, a, b, wantSrc)
					got := Play(rules, a, b, gotSrc)
					if got != want {
						t.Fatalf("memory %d trial %d error %v, %d rounds: Play %+v != reference %+v", n, trial, eps, l.rounds, got, want)
					}
					if g, w := gotSrc.Uint64(), wantSrc.Uint64(); g != w {
						t.Fatalf("memory %d trial %d error %v, %d rounds: next draw %#x, reference %#x", n, trial, eps, l.rounds, g, w)
					}
				}
			}
		}
	}
}

func TestPlayPureRejectsNoise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PlayPure accepted ErrorRate > 0")
		}
	}()
	sp := strategy.NewSpace(1)
	rules := DefaultRules()
	rules.ErrorRate = 0.01
	PlayPure(rules, strategy.NewPure(sp), strategy.NewPure(sp))
}

func TestPlayPureRejectsMismatchedSpaces(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PlayPure accepted mismatched spaces")
		}
	}()
	PlayPure(DefaultRules(), strategy.NewPure(strategy.NewSpace(1)), strategy.NewPure(strategy.NewSpace(2)))
}

func BenchmarkPlayPureVsPlay(b *testing.B) {
	src := rng.New(9)
	rules := DefaultRules()
	for _, n := range []int{1, 3, 6} {
		sp := strategy.NewSpace(n)
		s0 := strategy.RandomPure(sp, src)
		s1 := strategy.RandomPure(sp, src)
		b.Run("interface/m"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Play(rules, s0, s1, src)
			}
		})
		b.Run("bitpacked/m"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PlayPure(rules, s0, s1)
			}
		})
		// The sampled rung: a noisy mixed match (the paper's Fig. 2 kind),
		// interface loop against Play's concrete one.
		noisy := rules
		noisy.ErrorRate = 0.01
		m0, m1 := strategy.RandomMixed(sp, src), strategy.RandomMixed(sp, src)
		b.Run("mixed-interface/m"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				referencePlay(noisy, m0, m1, src)
			}
		})
		b.Run("mixed/m"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Play(noisy, m0, m1, src)
			}
		})
		// Sixteen such matches an operation: sixteen Play calls against one
		// PlayMixedBatch call, which is one kernel call where the CPU has
		// AVX-512.
		as, bs := make([]*strategy.Mixed, 16), make([]*strategy.Mixed, 16)
		for k := range as {
			as[k], bs[k] = strategy.RandomMixed(sp, src), strategy.RandomMixed(sp, src)
		}
		streams, out := make([]rng.Source, 16), make([]Result, 16)
		for k := range streams {
			streams[k] = *rng.New(uint64(k))
		}
		b.Run("mixed-play16/m"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := range out {
					out[k] = Play(noisy, as[k], bs[k], &streams[k])
				}
			}
		})
		b.Run("mixed-batch/m"+string(rune('0'+n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PlayMixedBatch(noisy, as, bs, streams, out)
			}
		})
	}
}
