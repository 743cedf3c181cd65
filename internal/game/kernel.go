package game

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/strategy"
)

// PlayPure runs one error-free IPD match between two pure strategies with a
// bit-packed inner loop: moves are read straight out of the strategies'
// response bitset words (bit set = Defect) and the per-joint-move payoffs
// come from a precomputed 4-entry table, so a round is a handful of shifts
// and two float additions regardless of memory depth. At memory six the
// strategy table is 4096 bits; this path touches only the one word holding
// the current state instead of dispatching through the Strategy interface.
//
// The result is bit-identical to Play(rules, s0, s1, ·) with ErrorRate == 0:
// the payoffs added each round are the exact Score values and the
// accumulation order is the same round order, so Fitness0/Fitness1 match to
// the last ULP (pinned by TestPlayPureBitIdentical). It panics if rules
// carry a positive error rate — noisy matches consume randomness and must go
// through Play.
func PlayPure(rules Rules, s0, s1 *strategy.Pure) Result {
	sp := s0.Space()
	if s1.Space() != sp {
		panic(fmt.Sprintf("game: mismatched spaces (memory %d vs %d)", sp.Memory(), s1.Space().Memory()))
	}
	if rules.ErrorRate > 0 {
		panic("game: PlayPure requires ErrorRate == 0")
	}
	score0, score1 := scoreTables(rules.Payoff)
	w0 := s0.Bits().Words()
	w1 := s1.Bits().Words()
	mask := uint32(sp.NumStates() - 1)
	st0 := sp.InitialState()
	st1 := sp.InitialState()
	res := Result{Rounds: rules.Rounds}
	for r := 0; r < rules.Rounds; r++ {
		m0 := uint32(w0[st0>>6]>>(st0&63)) & 1 // 1 = Defect, matching the bitset convention
		m1 := uint32(w1[st1>>6]>>(st1&63)) & 1
		jm := m0<<1 | m1
		res.Fitness0 += score0[jm]
		res.Fitness1 += score1[jm]
		st0 = ((st0 << 2) | jm) & mask
		st1 = ((st1 << 2) | (m1<<1 | m0)) & mask
	}
	return res
}

// playMixed is Play for two mixed strategies, which the caller has checked
// share a space: the probability tables are read directly instead of through
// the Strategy interface, and the stream is stepped in a local copy of *src
// that is written back at the end. It makes exactly the interface loop's
// draws in its order — player 0's move, player 1's move, then the two error
// draws, with no draw for a probability of 0 or 1 and none for an error rate
// of 0 or 1 — and adds the same Score values in the same round order, so the
// Result and the caller's next draw are bit-identical
// (TestPlayMixedMatchesInterfaceLoop).
func playMixed(rules Rules, s0, s1 *strategy.Mixed, src *rng.Source) Result {
	score0, score1 := scoreTables(rules.Payoff)
	p0, p1 := s0.Probs(), s1.Probs()
	p1 = p1[:len(p0)]
	mask := uint32(len(p0) - 1)
	// The error draws are Bernoulli(eps) with its edges settled once, outside
	// the loop: at eps >= 1 every move flips without a draw, below it each flip
	// is one Float64 draw, and at eps <= 0 there is no error draw at all.
	eps := rules.ErrorRate
	drawErr := eps > 0 && eps < 1
	var flip uint32
	if eps >= 1 {
		flip = 1
	}
	r := *src
	var st0, st1 uint32
	var f0, f1 float64
	for k := 0; k < rules.Rounds; k++ {
		m0, m1 := uint32(1), uint32(1) // 1 = Defect
		if r.Bernoulli(p0[st0]) {
			m0 = 0
		}
		if r.Bernoulli(p1[st1]) {
			m1 = 0
		}
		if drawErr {
			if r.Float64() < eps {
				m0 ^= 1
			}
			if r.Float64() < eps {
				m1 ^= 1
			}
		}
		m0 ^= flip
		m1 ^= flip
		jm := (m0<<1 | m1) & 3
		f0 += score0[jm]
		f1 += score1[jm]
		st0 = ((st0 << 2) | jm) & mask
		st1 = ((st1 << 2) | (m1<<1 | m0)) & mask
	}
	*src = r
	return Result{Fitness0: f0, Fitness1: f1, Rounds: rules.Rounds}
}

// scoreTables returns, indexed by m0<<1|m1, the exact Score values Play adds
// for each joint move, so a kernel accumulating from them is bit-identical to
// the interface path.
func scoreTables(p Payoff) (score0, score1 [4]float64) {
	for m0 := strategy.Move(0); m0 <= 1; m0++ {
		for m1 := strategy.Move(0); m1 <= 1; m1++ {
			score0[m0<<1|m1], score1[m0<<1|m1] = p.Score(m0, m1)
		}
	}
	return score0, score1
}
