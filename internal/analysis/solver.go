// Package analysis provides exact (non-sampled) evaluation of Iterated
// Prisoner's Dilemma match-ups.
//
// A match between two strategies of memory depth n — pure or mixed, with
// or without execution errors — is a Markov chain over the 4^n states of
// player 0's view; its long-run state distribution gives the exact
// per-round payoff of the infinitely repeated game. Solver is the one
// evaluator of that chain: the analytic machinery behind the
// Nowak-Sigmund Win-Stay Lose-Shift study the paper validates against
// (Fig. 2), the engine's exact-payoff mode (internal/sim), the replicator
// equation the engine is held to as its large-population limit
// (internal/replicator) and the fixation analysis in this package all call
// it, and it is the ground truth the sampled game engine is tested against.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/game"
	"repro/internal/strategy"
)

// Solver computes exact long-run payoffs for pairs of strategies of one
// space. The chain is a de Bruijn graph: joint move m (my<<1|opp) takes
// state st to 4·(st mod N) + m, N = 4^(n-1), so state 4q+m has exactly the
// four predecessors q, q+N, q+2N, q+3N. One power-iteration step gathers
// each state's mass from them — four multiply-adds per state from the
// joint-move table built once per solve. A Solver owns all its scratch — a
// reused one allocates nothing per solve — and is therefore not safe for
// concurrent use.
type Solver struct {
	sp strategy.Space
	// p0[s], p1[s] are the two players' effective cooperation
	// probabilities in state s (player 0's view) for the current solve.
	p0, p1 []float64
	// pr[s][m] is the probability of joint move m in state s, built once
	// per stochastic solve (the deterministic walk does not read it).
	pr [][4]float64
	// cur, next are the state distributions of the power iteration.
	cur, next []float64
	// seen[s] is 1 + the index in path at which the deterministic walk
	// first reached s, 0 while unvisited.
	seen []int32
	path []uint32
}

// NewSolver returns a solver for strategies of sp.
func NewSolver(sp strategy.Space) *Solver {
	n := sp.NumStates()
	return &Solver{
		sp: sp,
		p0: make([]float64, n), p1: make([]float64, n), pr: make([][4]float64, n),
		cur: make([]float64, n), next: make([]float64, n),
		seen: make([]int32, n), path: make([]uint32, 0, n),
	}
}

// MarkovPayoffN is Solver.Payoff on a solver built for the call: the
// convenience for a handful of evaluations. A caller with many keeps a
// Solver; outside tests only bench/probes.go still calls this (ROADMAP item
// 1's shim ledger).
func MarkovPayoffN(payoff game.Payoff, s0, s1 strategy.Strategy, errRate float64) (pi0, pi1 float64, err error) {
	return NewSolver(s0.Space()).Payoff(payoff, s0, s1, errRate)
}

// Payoff returns the exact expected per-round payoffs (to s0 and s1) of
// the infinitely repeated game between two strategies of the solver's
// space, under the given payoff matrix and execution-error rate.
//
// Fully deterministic play (pure or degenerate-mixed strategies, no
// errors) is eventually periodic and is resolved exactly by walking the
// joint state from the all-cooperate initial state — the engines'
// convention — until it cycles; the payoff is the cycle average. Chains
// with any genuine randomness mix geometrically, so power iteration
// returns the fixed point as soon as the distribution stops moving;
// slow-mixing or near-periodic chains fall back to a long Cesàro average.
func (s *Solver) Payoff(payoff game.Payoff, s0, s1 strategy.Strategy, errRate float64) (pi0, pi1 float64, err error) {
	if s0.Space() != s.sp || s1.Space() != s.sp {
		return 0, 0, fmt.Errorf("analysis: mismatched strategy spaces")
	}
	// Negated comparison so NaN (for which both bounds are false) is
	// rejected rather than silently poisoning the chain.
	if !(errRate >= 0 && errRate <= 1) {
		return 0, 0, fmt.Errorf("analysis: error rate %v out of [0,1]", errRate)
	}
	// Joint moves are indexed m = my<<1|opp: CC, CD, DC, DD.
	perMove0 := [4]float64{payoff.R, payoff.S, payoff.T, payoff.P}
	perMove1 := [4]float64{payoff.R, payoff.T, payoff.S, payoff.P}

	if s.load(s0, s1, errRate) {
		clear(s.seen)
		s.path = s.path[:0]
		st := s.sp.InitialState()
		for s.seen[st] == 0 {
			s.path = append(s.path, st)
			s.seen[st] = int32(len(s.path))
			st = s.successor(st, s.deterministicMove(st))
		}
		cycle := s.path[s.seen[st]-1:]
		for _, cs := range cycle {
			m := s.deterministicMove(cs)
			pi0 += perMove0[m]
			pi1 += perMove1[m]
		}
		return pi0 / float64(len(cycle)), pi1 / float64(len(cycle)), nil
	}

	clear(s.cur)
	s.cur[s.sp.InitialState()] = 1
	const burnin = 1 << 13
	for t := 0; t < burnin; t++ {
		s.step()
		if t%16 == 15 {
			// The step swapped the previous distribution into next.
			d := 0.0
			for i := range s.cur {
				d += math.Abs(s.cur[i] - s.next[i])
			}
			if d < 1e-13 {
				pi0, pi1 = s.expected(perMove0, perMove1)
				return pi0, pi1, nil
			}
		}
	}
	const horizon = 1 << 15
	for t := 0; t < horizon; t++ {
		e0, e1 := s.expected(perMove0, perMove1)
		pi0 += e0
		pi1 += e1
		s.step()
	}
	return pi0 / horizon, pi1 / horizon, nil
}

// load fills p0 and p1 for a solve of s0 against s1 and reports whether
// every cooperation probability is 0 or 1; when one is not, it also builds
// the joint-move table pr the power iteration reads.
func (s *Solver) load(s0, s1 strategy.Strategy, errRate float64) (deterministic bool) {
	deterministic = true
	for st := range s.p0 {
		s.p0[st] = effectiveCoopProb(s0, uint32(st), errRate)
		s.p1[st] = effectiveCoopProb(s1, s.sp.Opposing(uint32(st)), errRate)
		if (s.p0[st] != 0 && s.p0[st] != 1) || (s.p1[st] != 0 && s.p1[st] != 1) {
			deterministic = false
		}
	}
	if !deterministic {
		for st := range s.pr {
			c0, d0, c1, d1 := s.p0[st], 1-s.p0[st], s.p1[st], 1-s.p1[st]
			s.pr[st] = [4]float64{c0 * c1, c0 * d1, d0 * c1, d0 * d1}
		}
	}
	return deterministic
}

// effectiveCoopProb returns the probability the executed move is C in the
// given state, folding the per-move execution error into the strategy's
// intended cooperation probability.
func effectiveCoopProb(s strategy.Strategy, state uint32, errRate float64) float64 {
	p := s.CooperateProb(state)
	return float64(p*(1-errRate)) + float64((1-p)*errRate)
}

// successor is the state after joint move m (my<<1|opp) is played in st.
func (s *Solver) successor(st uint32, m int) uint32 {
	return s.sp.NextState(st, strategy.Move(m>>1), strategy.Move(m&1))
}

// deterministicMove is the joint move played with certainty in st when
// every cooperation probability is 0 or 1.
func (s *Solver) deterministicMove(st uint32) int {
	m := 0
	if s.p0[st] < 1 {
		m = 2
	}
	if s.p1[st] < 1 {
		m |= 1
	}
	return m
}

// step advances cur by one round of play, through stepAVX where the CPU
// has AVX (cpu.AVX) and through gather everywhere else. The two give the
// same bits.
func (s *Solver) step() {
	if cpu.AVX {
		stepAVX(s.next, s.cur, s.pr)
	} else {
		s.gather()
	}
	s.cur, s.next = s.next, s.cur
}

// gather writes the distribution after one round of play into next: state
// 4q+m gathers the mass cur[p]·pr[p][m] of its predecessors p = q, q+N,
// q+2N, q+3N — one from each quarter of the states. The four terms are
// added left to right in that ascending order — the order in which a
// scatter over ascending states adds them; the terms a scatter skips (no
// mass, or a move of probability 0) are +0, which leaves a non-negative
// sum unchanged — so the distribution is bit-identical to the scatter's.
// Every product is rounded before its add (the float64 conversions forbid
// fusing the two into an FMA), so the bits do not depend on the target
// either. stepAVX computes the same sums, the four states 4q..4q+3 in the
// lanes of one vector.
func (s *Solver) gather() {
	nq := len(s.cur) / 4
	c0, c1, c2, c3 := s.cur[:nq], s.cur[nq:2*nq], s.cur[2*nq:3*nq], s.cur[3*nq:]
	r0, r1, r2, r3 := s.pr[:nq], s.pr[nq:2*nq], s.pr[2*nq:3*nq], s.pr[3*nq:]
	// Every quarter re-sliced to length nq: the loop indexes them unchecked.
	c1, c2, c3, r0, r1, r2, r3 = c1[:nq], c2[:nq], c3[:nq], r0[:nq], r1[:nq], r2[:nq], r3[:nq]
	for q, a := range c0 {
		b, c, d := c1[q], c2[q], c3[q]
		pa, pb, pc, pd := &r0[q], &r1[q], &r2[q], &r3[q]
		t := (*[4]float64)(s.next[4*q:])
		t[0] = float64(a*pa[0]) + float64(b*pb[0]) + float64(c*pc[0]) + float64(d*pd[0])
		t[1] = float64(a*pa[1]) + float64(b*pb[1]) + float64(c*pc[1]) + float64(d*pd[1])
		t[2] = float64(a*pa[2]) + float64(b*pb[2]) + float64(c*pc[2]) + float64(d*pd[2])
		t[3] = float64(a*pa[3]) + float64(b*pb[3]) + float64(c*pc[3]) + float64(d*pd[3])
	}
}

// expected is the two players' expected payoffs of one round played from
// the distribution cur.
func (s *Solver) expected(perMove0, perMove1 [4]float64) (e0, e1 float64) {
	for st, mass := range s.cur {
		if mass == 0 {
			continue
		}
		for m, pr := range &s.pr[st] {
			e0 += float64(mass * pr * perMove0[m])
			e1 += float64(mass * pr * perMove1[m])
		}
	}
	return e0, e1
}
