// Package analysis provides exact (non-sampled) evaluation of Iterated
// Prisoner's Dilemma match-ups.
//
// For memory-one strategies — pure or mixed, with or without execution
// errors — a match is a Markov chain over the four joint states
// {CC, CD, DC, DD}; its stationary distribution gives the exact long-run
// per-round payoff. This is the analytic machinery behind the
// Nowak-Sigmund Win-Stay Lose-Shift study the paper validates against
// (Fig. 2), and it serves as ground truth for the sampled game engine in
// tests and ablations.
//
// For pure strategies of any memory depth without errors, play is
// eventually periodic; ExactPure detects the cycle and returns the exact
// long-run payoff without simulating every round.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/game"
	"repro/internal/strategy"
)

// effectiveCoopProb returns the probability the executed move is C in the
// given state, folding the per-move execution error into the strategy's
// intended cooperation probability.
func effectiveCoopProb(s strategy.Strategy, state uint32, errRate float64) float64 {
	p := s.CooperateProb(state)
	return p*(1-errRate) + (1-p)*errRate
}

// MarkovPayoff returns the exact expected per-round payoffs (to s0 and s1)
// of the infinitely repeated game between two memory-one strategies under
// the given payoff matrix and execution-error rate.
//
// With errRate > 0 (or strictly mixed strategies) the chain is ergodic and
// the stationary distribution is unique. For deterministic error-free play
// the chain may be periodic or multi-recurrent; MarkovPayoff then averages
// over the trajectory from the all-cooperate initial state, matching the
// game engine's convention.
func MarkovPayoff(payoff game.Payoff, s0, s1 strategy.Strategy, errRate float64) (pi0, pi1 float64, err error) {
	sp := s0.Space()
	if sp.Memory() != 1 {
		return 0, 0, fmt.Errorf("analysis: MarkovPayoff needs memory-one strategies, got memory-%d", sp.Memory())
	}
	if s1.Space() != sp {
		return 0, 0, fmt.Errorf("analysis: mismatched strategy spaces")
	}
	if errRate < 0 || errRate > 1 {
		return 0, 0, fmt.Errorf("analysis: error rate %v out of [0,1]", errRate)
	}

	// Transition matrix over joint states from player 0's view:
	// 0=CC, 1=CD, 2=DC, 3=DD (my move << 1 | opp move).
	var T [4][4]float64
	for from := uint32(0); from < 4; from++ {
		p0 := effectiveCoopProb(s0, from, errRate)
		p1 := effectiveCoopProb(s1, sp.Opposing(from), errRate)
		for my := 0; my < 2; my++ {
			for opp := 0; opp < 2; opp++ {
				pm := p0
				if my == 1 {
					pm = 1 - p0
				}
				po := p1
				if opp == 1 {
					po = 1 - p1
				}
				to := uint32(my<<1 | opp)
				T[from][to] = pm * po
			}
		}
	}

	dist, err := stationary(T)
	if err != nil {
		return 0, 0, err
	}
	payoffs0 := [4]float64{payoff.R, payoff.S, payoff.T, payoff.P}
	payoffs1 := [4]float64{payoff.R, payoff.T, payoff.S, payoff.P}
	for st := 0; st < 4; st++ {
		pi0 += dist[st] * payoffs0[st]
		pi1 += dist[st] * payoffs1[st]
	}
	return pi0, pi1, nil
}

// stationary computes the long-run (Cesàro) state distribution of the
// chain started from the all-cooperate state (index 0), the engines'
// convention.
//
// Fully deterministic chains (every transition probability 0 or 1) are
// walked exactly: the trajectory enters a cycle within four steps and the
// limit is the uniform distribution over that cycle. Chains with any
// genuine randomness mix geometrically, so a burn-in followed by a long
// Cesàro average converges to the limit distribution to well below the
// 1e-9 level the payoff arithmetic needs.
func stationary(T [4][4]float64) ([4]float64, error) {
	if det, dist := deterministicLimit(T); det {
		return dist, nil
	}
	cur := [4]float64{1, 0, 0, 0}
	step := func() {
		var next [4]float64
		for from := 0; from < 4; from++ {
			if cur[from] == 0 {
				continue
			}
			for to := 0; to < 4; to++ {
				next[to] += cur[from] * T[from][to]
			}
		}
		cur = next
	}
	// Ergodic fast path: iterate to the fixed point and return it as soon
	// as the distribution stops moving (geometric convergence for chains
	// with genuine randomness).
	const burnin = 1 << 13
	for t := 0; t < burnin; t++ {
		prev := cur
		step()
		if t%8 == 7 {
			d := math.Abs(cur[0]-prev[0]) + math.Abs(cur[1]-prev[1]) +
				math.Abs(cur[2]-prev[2]) + math.Abs(cur[3]-prev[3])
			if d < 1e-14 {
				return cur, nil
			}
		}
	}
	// Slow-mixing or near-periodic: Cesàro average over a long horizon.
	var avg [4]float64
	const horizon = 1 << 16
	for t := 0; t < horizon; t++ {
		for i := 0; i < 4; i++ {
			avg[i] += cur[i]
		}
		step()
	}
	total := 0.0
	for i := 0; i < 4; i++ {
		avg[i] /= horizon
		total += avg[i]
	}
	if math.Abs(total-1) > 1e-9 {
		return avg, fmt.Errorf("analysis: distribution mass %v != 1", total)
	}
	return avg, nil
}

// deterministicLimit checks whether the chain is fully deterministic
// (every row is a unit vector); if so it walks the trajectory from state 0
// and returns the exact uniform distribution over the entered cycle.
func deterministicLimit(T [4][4]float64) (bool, [4]float64) {
	var next [4]int
	for from := 0; from < 4; from++ {
		found := -1
		for to := 0; to < 4; to++ {
			switch T[from][to] {
			case 1:
				found = to
			case 0:
			default:
				return false, [4]float64{}
			}
		}
		if found < 0 {
			return false, [4]float64{}
		}
		next[from] = found
	}
	visitedAt := [4]int{-1, -1, -1, -1}
	path := make([]int, 0, 5)
	st := 0
	for visitedAt[st] < 0 {
		visitedAt[st] = len(path)
		path = append(path, st)
		st = next[st]
	}
	cycle := path[visitedAt[st]:]
	var dist [4]float64
	for _, s := range cycle {
		dist[s] += 1.0 / float64(len(cycle))
	}
	return true, dist
}

// ExactPure returns the exact long-run mean per-round payoffs of
// deterministic, error-free play between two pure strategies of any memory
// depth, by detecting the inevitable state cycle. Play from the
// all-cooperate view is a deterministic walk on at most 4^n joint states,
// so it enters a cycle within 4^n steps; the long-run payoff is the cycle
// average.
func ExactPure(payoff game.Payoff, s0, s1 *strategy.Pure) (pi0, pi1 float64, err error) {
	sp := s0.Space()
	if s1.Space() != sp {
		return 0, 0, fmt.Errorf("analysis: mismatched strategy spaces")
	}
	type joint struct{ a, b uint32 }
	seen := make(map[joint]int) // joint state -> step index when first seen
	var pay0, pay1 []float64

	stA, stB := sp.InitialState(), sp.InitialState()
	for step := 0; ; step++ {
		j := joint{stA, stB}
		if first, ok := seen[j]; ok {
			// Cycle covers steps [first, step); average its payoffs.
			var c0, c1 float64
			n := step - first
			for i := first; i < step; i++ {
				c0 += pay0[i]
				c1 += pay1[i]
			}
			return c0 / float64(n), c1 / float64(n), nil
		}
		seen[j] = step
		m0 := s0.MoveAt(stA)
		m1 := s1.MoveAt(stB)
		f0, f1 := payoff.Score(m0, m1)
		pay0 = append(pay0, f0)
		pay1 = append(pay1, f1)
		stA = sp.NextState(stA, m0, m1)
		stB = sp.NextState(stB, m1, m0)
	}
}
