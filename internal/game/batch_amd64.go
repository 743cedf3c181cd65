package game

import (
	"repro/internal/rng"
	"repro/internal/strategy"
)

// lanes is playMixed8's argument block: eight matches, one to a 64-bit
// lane. Every field is eight lanes wide, 64 bytes, so the kernel loads
// each as one vector at a fixed offset (batch_amd64.s;
// TestLanesLayout).
type lanes struct {
	s      [4][8]uint64  // each stream's xoshiro words, word-major; in and out
	p0, p1 [8]*float64   // each lane's two probability tables
	mask   [8]uint64     // each lane's state mask, 4^n − 1
	score  [2][8]float64 // scoreTables' two tables, in elements 0–3
	eps    [8]float64    // the error rate, in every lane
	start  [8]uint64     // the joint move before a round's events: 3, both defect, or 0 where eps ≥ 1 flips both
	fit    [2][8]float64 // out: each lane's Fitness0 and Fitness1
}

// playMixed8 plays the eight matches l describes for rounds rounds, making
// two error draws a round where drawErr (batch_amd64.s).
//
//go:noescape
func playMixed8(l *lanes, rounds int, drawErr bool)

// playMixed8s plays every full group of eight matches of the batch
// through playMixed8 and returns how many it played.
func playMixed8s(rules Rules, a, b []*strategy.Mixed, src []rng.Source, out []Result) int {
	var l lanes
	score0, score1 := scoreTables(rules.Payoff)
	copy(l.score[0][:], score0[:])
	copy(l.score[1][:], score1[:])
	eps := rules.ErrorRate
	drawErr := eps > 0 && eps < 1
	start := uint64(3)
	if eps >= 1 {
		start = 0
	}
	for k := range 8 {
		l.eps[k], l.start[k] = eps, start
	}
	n := len(out) &^ 7
	for g := 0; g < n; g += 8 {
		for k := range 8 {
			p0, p1 := a[g+k].Probs(), b[g+k].Probs()
			p1 = p1[:len(p0)]
			l.p0[k], l.p1[k], l.mask[k] = &p0[0], &p1[0], uint64(len(p0)-1)
			w := src[g+k].State()
			for i := range w {
				l.s[i][k] = w[i]
			}
		}
		playMixed8(&l, rules.Rounds, drawErr)
		for k := range 8 {
			src[g+k].SetState([4]uint64{l.s[0][k], l.s[1][k], l.s[2][k], l.s[3][k]})
			out[g+k] = Result{Fitness0: l.fit[0][k], Fitness1: l.fit[1][k], Rounds: rules.Rounds}
		}
	}
	return n
}
