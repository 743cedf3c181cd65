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
// entry, which draws, and its size cycles
// through 1–17, so a batch holds no full group, one or two, with and
// without a remainder.
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
					size = size%17 + 1
					checkBatch(t, Rules{Payoff: l.payoff, Rounds: l.rounds, ErrorRate: eps}, sp, src, size)
				}
			}
		}
	})
}

// checkBatch plays a batch of size matches between fresh strategies of sp
// and compares every lane with referencePlay.
func checkBatch(t *testing.T, rules Rules, sp strategy.Space, src *rng.Source, size int) {
	t.Helper()
	a, b := make([]*strategy.Mixed, size), make([]*strategy.Mixed, size)
	streams, out := make([]rng.Source, size), make([]Result, size)
	seeds := make([]uint64, size)
	for k := range a {
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
				sp.Memory(), rules.ErrorRate, rules.Rounds, size, k, out[k], want)
		}
		if g, w := streams[k].Uint64(), ref.Uint64(); g != w {
			t.Fatalf("memory %d error %v, %d rounds, batch of %d: lane %d next draw %#x, reference %#x",
				sp.Memory(), rules.ErrorRate, rules.Rounds, size, k, g, w)
		}
	}
}
