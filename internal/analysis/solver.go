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
// dynamics (internal/replicator) and the fixation analysis in this package
// all call it, and it is the ground truth the sampled game engine is tested
// against.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/game"
	"repro/internal/strategy"
)

// Solver computes exact long-run payoffs for pairs of strategies of one
// space. Each state has only four successors (the joint move), so the
// chain is sparse and one power-iteration step costs O(4^n) even at memory
// six. A Solver owns all its scratch — a reused one allocates nothing per
// solve — and is therefore not safe for concurrent use.
type Solver struct {
	sp strategy.Space
	// p0[s], p1[s] are the two players' effective cooperation
	// probabilities in state s (player 0's view) for the current solve.
	p0, p1 []float64
	// cur, next, prev are the state distributions of the power iteration.
	cur, next, prev []float64
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
		p0: make([]float64, n), p1: make([]float64, n),
		cur: make([]float64, n), next: make([]float64, n), prev: make([]float64, n),
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
	n := s.sp.NumStates()
	deterministic := true
	for st := 0; st < n; st++ {
		s.p0[st] = effectiveCoopProb(s0, uint32(st), errRate)
		s.p1[st] = effectiveCoopProb(s1, s.sp.Opposing(uint32(st)), errRate)
		if (s.p0[st] != 0 && s.p0[st] != 1) || (s.p1[st] != 0 && s.p1[st] != 1) {
			deterministic = false
		}
	}
	// Joint moves are indexed m = my<<1|opp: CC, CD, DC, DD.
	perMove0 := [4]float64{payoff.R, payoff.S, payoff.T, payoff.P}
	perMove1 := [4]float64{payoff.R, payoff.T, payoff.S, payoff.P}

	if deterministic {
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
		check := t%16 == 15
		if check {
			copy(s.prev, s.cur)
		}
		s.step()
		if check {
			d := 0.0
			for i := range s.cur {
				d += math.Abs(s.cur[i] - s.prev[i])
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

// effectiveCoopProb returns the probability the executed move is C in the
// given state, folding the per-move execution error into the strategy's
// intended cooperation probability.
func effectiveCoopProb(s strategy.Strategy, state uint32, errRate float64) float64 {
	p := s.CooperateProb(state)
	return p*(1-errRate) + (1-p)*errRate
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

// movePr is the probability of joint move m in state st.
func (s *Solver) movePr(st, m int) float64 {
	pm := s.p0[st]
	if m>>1 == 1 {
		pm = 1 - s.p0[st]
	}
	po := s.p1[st]
	if m&1 == 1 {
		po = 1 - s.p1[st]
	}
	return pm * po
}

// step advances cur by one round of play.
func (s *Solver) step() {
	clear(s.next)
	for st, mass := range s.cur {
		if mass == 0 {
			continue
		}
		for m := 0; m < 4; m++ {
			if pr := s.movePr(st, m); pr > 0 {
				s.next[s.successor(uint32(st), m)] += mass * pr
			}
		}
	}
	s.cur, s.next = s.next, s.cur
}

// expected is the two players' expected payoffs of one round played from
// the distribution cur.
func (s *Solver) expected(perMove0, perMove1 [4]float64) (e0, e1 float64) {
	for st, mass := range s.cur {
		if mass == 0 {
			continue
		}
		for m := 0; m < 4; m++ {
			pr := s.movePr(st, m)
			e0 += mass * pr * perMove0[m]
			e1 += mass * pr * perMove1[m]
		}
	}
	return e0, e1
}
