package game

import (
	"repro/internal/rng"
	"repro/internal/strategy"
)

// lanes is playMixed16's argument block: sixteen matches, one to a 64-bit
// lane, in two groups of eight. Every per-lane field is sixteen lanes wide,
// group A's 64 bytes then group B's, so the kernel loads each group's half
// as one vector at a fixed offset, and broadcasts start to every lane
// (batch_amd64.s; TestLanesLayout).
type lanes struct {
	s      [4][16]uint64  // each stream's xoshiro words, word-major; in and out
	p0, p1 [16]*float64   // each lane's two probability tables
	mask   [16]uint64     // each lane's state mask, 4^n − 1
	score  [2][8]float64  // scoreTables' two tables, in elements 0–3
	fit    [2][16]float64 // out: each lane's Fitness0 and Fitness1
	start  uint64         // the joint move before a round's events: 3, both defect, or 0 where eps ≥ 1 flips both
}

// playMixed16 plays the sixteen matches l describes for rounds rounds,
// making two error draws a round, each against eps, where drawErr
// (batch_amd64.s).
//
//go:noescape
func playMixed16(l *lanes, rounds int, eps float64, drawErr bool)

// minLanes is the fewest matches playMixed16s plays in a kernel call. A call
// costs the same however many of its lanes are used, about as much as two
// to three 200-round playMixed matches at memory 1 and 3, so a last group
// of fewer plays through playMixed.
const minLanes = 3

// playMixed16s plays every match of the batch through playMixed16, sixteen
// a call. The unused lanes of a last group of fewer, but at least minLanes,
// replay the group's first match on copies of its stream, and their outputs
// are dropped.
func playMixed16s(rules Rules, a, b []*strategy.Mixed, src []rng.Source, out []Result) {
	var l lanes
	score0, score1 := scoreTables(rules.Payoff)
	copy(l.score[0][:], score0[:])
	copy(l.score[1][:], score1[:])
	eps := rules.ErrorRate
	drawErr := eps > 0 && eps < 1
	l.start = 3
	if eps >= 1 {
		l.start = 0
	}
	for g := 0; g < len(out); g += 16 {
		n := min(16, len(out)-g)
		if n < minLanes {
			for k := g; k < len(out); k++ {
				out[k] = playMixed(rules, a[k], b[k], &src[k])
			}
			return
		}
		for k := range 16 {
			j := g
			if k < n {
				j += k
			}
			p0, p1 := a[j].Probs(), b[j].Probs()
			p1 = p1[:len(p0)]
			l.p0[k], l.p1[k], l.mask[k] = &p0[0], &p1[0], uint64(len(p0)-1)
			w := src[j].State()
			for i := range w {
				l.s[i][k] = w[i]
			}
		}
		playMixed16(&l, rules.Rounds, eps, drawErr)
		for k := range n {
			src[g+k].SetState([4]uint64{l.s[0][k], l.s[1][k], l.s[2][k], l.s[3][k]})
			out[g+k] = Result{Fitness0: l.fit[0][k], Fitness1: l.fit[1][k], Rounds: rules.Rounds}
		}
	}
}
