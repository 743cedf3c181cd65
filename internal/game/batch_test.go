package game

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cpu/cputest"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// withEachKernel runs f once through playMixed alone and, where the CPU
// has AVX-512 F and DQ, once with PlayMixedBatch's kernel on, restoring
// the CPU's choice after (cputest.EachKernel). On amd64 it first fails the
// test when /proc/cpuinfo lists avx512f and avx512dq but the probe does
// not see them, or when the CPU has them but the batch plays scalar.
func withEachKernel(t *testing.T, f func(kernel bool)) {
	t.Helper()
	_, avx512 := cpu.Probe()
	cputest.EachKernel(t, "game.PlayMixedBatch", &cpu.AVX512, avx512, []string{"avx512f", "avx512dq"}, f)
}

// TestPlayMixedBatchMatchesInterfaceLoop holds every lane of the batch to
// referencePlay: each Result bit for bit and each stream's next draw, at
// memory 1–6, error rates {0, 0.01, 0.5, 1}, 0, 1, 200 and 1 001 rounds
// (the last under a payoff no float represents exactly) and 200 under the
// tally payoff, which counts the moves. Each batch mixes uniform tables
// with tables whose exact 0/1 entries draw nothing and tables with a NaN
// entry, which draws, and its size cycles through 1–35, so a batch holds
// no full group of sixteen, one or two, with every padded remainder.
func TestPlayMixedBatchMatchesInterfaceLoop(t *testing.T) {
	fractions := Payoff{R: 0.3, S: 0.1, T: 0.4, P: 0.2}
	lengths := []struct {
		rounds int
		payoff Payoff
	}{{0, StandardPayoff()}, {1, StandardPayoff()}, {DefaultRounds, StandardPayoff()}, {1001, fractions}, {DefaultRounds, tally(DefaultRules()).Payoff}}
	withEachKernel(t, func(bool) {
		src := rng.New(31)
		size := 0
		for n := 1; n <= strategy.MaxMemory; n++ {
			sp := strategy.NewSpace(n)
			for _, eps := range []float64{0, 0.01, 0.5, 1} {
				for _, l := range lengths {
					size = size%35 + 1
					sps := make([]strategy.Space, size)
					for k := range sps {
						sps[k] = sp
					}
					checkBatch(t, Rules{Payoff: l.payoff, Rounds: l.rounds, ErrorRate: eps}, sps, src)
				}
			}
		}
	})
}

// TestPlayMixedBatchMixesMemories plays batches whose lanes cycle through
// memories 1, 3 and 6, so each lane of both groups of sixteen reads its own
// state mask and tables, and a lane of the second group never shares its
// memory with the lane sixteen before it: 32 lanes, two full groups, and
// 27, whose second group is padded.
func TestPlayMixedBatchMixesMemories(t *testing.T) {
	memories := []strategy.Space{strategy.NewSpace(1), strategy.NewSpace(3), strategy.NewSpace(6)}
	withEachKernel(t, func(bool) {
		src := rng.New(47)
		for _, size := range []int{32, 27} {
			sps := make([]strategy.Space, size)
			for k := range sps {
				sps[k] = memories[k%len(memories)]
			}
			for _, eps := range []float64{0, 0.01, 0.5} {
				checkBatch(t, Rules{Payoff: StandardPayoff(), Rounds: DefaultRounds, ErrorRate: eps}, sps, src)
			}
		}
	})
}

// TestPlayMixedBatchErrorThreshold pins the error draws' comparison at its
// edge. Every move probability is 1, so no move draw comes first, and the
// stream's two error draws, player 0's u0 = x>>11 and then player 1's u1,
// are below 2^52 and even, so (u+½)·2^−53 is a float64 and rounding it to
// the nearest integer, ties to even, gives u, not u+1. For each player,
// Float64() < eps must not flip its move at eps = u·2^−53 and must at eps
// = (u+½)·2^−53: one round in every lane of two full groups, held to
// playMixed.
func TestPlayMixedBatchErrorThreshold(t *testing.T) {
	var seed uint64
	var u [2]uint64
	edge := func(u uint64) bool { return u < 1<<52 && u%2 == 0 }
	for seed = 1; ; seed++ {
		r := rng.New(seed)
		if u[0], u[1] = r.Uint64()>>11, r.Uint64()>>11; edge(u[0]) && edge(u[1]) {
			break
		}
	}
	sp := strategy.NewSpace(1)
	ones := make([]float64, sp.NumStates())
	for s := range ones {
		ones[s] = 1
	}
	allC := strategy.MixedFromProbs(sp, ones)
	p := StandardPayoff()
	withEachKernel(t, func(bool) {
		for player, u := range u {
			for _, c := range []struct {
				eps  float64
				flip bool
			}{{float64(u) / (1 << 53), false}, {(float64(u) + 0.5) / (1 << 53), true}} {
				rules := Rules{Payoff: p, Rounds: 1, ErrorRate: c.eps}
				a, streams, out := make([]*strategy.Mixed, 32), make([]rng.Source, 32), make([]Result, 32)
				for k := range a {
					a[k], streams[k] = allC, *rng.New(seed)
				}
				PlayMixedBatch(rules, a, a, streams, out)
				ref := rng.New(seed)
				want := playMixed(rules, allC, allC, ref)
				mine := [2]float64{want.Fitness0, want.Fitness1}[player]
				if flipped := mine == p.T || mine == p.P; flipped != c.flip {
					t.Fatalf("eps %v, player %d's error draw %d·2^−53: playMixed flips its move: %v, want %v", c.eps, player, u, flipped, c.flip)
				}
				for k := range out {
					if out[k] != want || streams[k] != *ref {
						t.Fatalf("eps %v, player %d's error draw %d·2^−53: lane %d %+v != playMixed's %+v", c.eps, player, u, k, out[k], want)
					}
				}
			}
		}
	})
}

// checkBatch plays a batch of matches, lane k between fresh strategies of
// sps[k], and compares every lane with referencePlay.
func checkBatch(t *testing.T, rules Rules, sps []strategy.Space, src *rng.Source) {
	t.Helper()
	size := len(sps)
	a, b := make([]*strategy.Mixed, size), make([]*strategy.Mixed, size)
	streams, out := make([]rng.Source, size), make([]Result, size)
	seeds := make([]uint64, size)
	for k, sp := range sps {
		draw := strategy.RandomMixed
		if k%3 == 1 {
			draw = edgyMixed
		}
		a[k], b[k] = draw(sp, src), draw(sp, src)
		if k%5 == 4 { // a NaN entry draws and defects, as Bernoulli(NaN) does
			a[k].Probs()[src.Intn(sp.NumStates())] = math.NaN()
		}
		seeds[k] = src.Uint64()
		streams[k] = *rng.New(seeds[k])
	}
	PlayMixedBatch(rules, a, b, streams, out)
	for k := range out {
		ref := rng.New(seeds[k])
		want := referencePlay(rules, a[k], b[k], ref)
		if out[k] != want {
			t.Fatalf("memory %d error %v, %d rounds, batch of %d: lane %d %+v != reference %+v",
				sps[k].Memory(), rules.ErrorRate, rules.Rounds, size, k, out[k], want)
		}
		if g, w := streams[k].Uint64(), ref.Uint64(); g != w {
			t.Fatalf("memory %d error %v, %d rounds, batch of %d: lane %d next draw %#x, reference %#x",
				sps[k].Memory(), rules.ErrorRate, rules.Rounds, size, k, g, w)
		}
	}
}
