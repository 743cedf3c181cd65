package game

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/strategy"
)

// DefaultRounds is the paper's rounds-per-generation (Smith & Price's 200).
const DefaultRounds = 200

// Rules bundles the fixed parameters of an IPD match.
type Rules struct {
	Payoff Payoff
	Rounds int
	// ErrorRate is the probability, per player per round, of executing the
	// opposite of the intended move (the paper's §III-E error model).
	ErrorRate float64
}

// DefaultRules returns the paper's standard match configuration:
// f[R,S,T,P]=[3,0,4,1], 200 rounds, no errors.
func DefaultRules() Rules {
	return Rules{Payoff: StandardPayoff(), Rounds: DefaultRounds}
}

// Validate checks the rule set.
func (r Rules) Validate() error {
	if err := r.Payoff.Validate(); err != nil {
		return err
	}
	if r.Rounds <= 0 {
		return fmt.Errorf("game: rounds must be positive, got %d", r.Rounds)
	}
	// Negated comparison so NaN (for which both x < 0 and x > 1 are false)
	// is rejected too.
	if !(r.ErrorRate >= 0 && r.ErrorRate <= 1) {
		return fmt.Errorf("game: error rate %v out of [0,1]", r.ErrorRate)
	}
	return nil
}

// Result summarises one IPD match from player 0's perspective.
type Result struct {
	Fitness0 float64 // total payoff accumulated by player 0
	Fitness1 float64 // total payoff accumulated by player 1
	Rounds   int
}

// Mean0 returns player 0's mean per-round payoff.
func (r Result) Mean0() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return r.Fitness0 / float64(r.Rounds)
}

// Mean1 returns player 1's mean per-round payoff.
func (r Result) Mean1() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return r.Fitness1 / float64(r.Rounds)
}

// Play runs one Iterated Prisoner's Dilemma match between s0 and s1 using
// the optimised O(1) state indexing. Both strategies must share a space.
// src supplies all randomness (mixed-strategy sampling and execution
// errors); pass any source for pure, error-free play — it is not consumed.
//
// This is the IPD() function of the paper's agent pseudo-code: the view
// starts at all-cooperate, each round both players choose via their strategy
// table, errors flip the executed move, payoffs accumulate.
//
// A pair of *strategy.Mixed plays on their probability tables directly
// (playMixed: the same draws in the same order, the same Result, src left
// where this loop would leave it); every other pairing runs the loop below,
// which is the reference both are held to.
func Play(rules Rules, s0, s1 strategy.Strategy, src *rng.Source) Result {
	sp := s0.Space()
	if s1.Space() != sp {
		panic(fmt.Sprintf("game: mismatched spaces (memory %d vs %d)", sp.Memory(), s1.Space().Memory()))
	}
	if m0, ok := s0.(*strategy.Mixed); ok {
		if m1, ok := s1.(*strategy.Mixed); ok {
			return playMixed(rules, m0, m1, src)
		}
	}
	res := Result{Rounds: rules.Rounds}
	st0 := sp.InitialState()
	st1 := sp.InitialState() // == Opposing(st0) at the start
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

// SearchEngine is the paper-faithful IPD engine: it maintains an explicit
// current_view slice of moves and locates the state ID each round by linear
// search over the global state table, exactly as the paper's find_state
// does. Its per-round cost grows with the state-table size (O(4^n * n)),
// which is the mechanism behind the paper's Fig. 4 runtime growth.
type SearchEngine struct {
	space strategy.Space
	table [][]strategy.Move // global `states` array
	view0 []strategy.Move   // player 0's current_view, oldest round first
	view1 []strategy.Move
}

// NewSearchEngine builds the global state table for the space.
func NewSearchEngine(sp strategy.Space) *SearchEngine {
	return &SearchEngine{
		space: sp,
		table: sp.StateTable(),
		view0: make([]strategy.Move, 2*sp.Memory()),
		view1: make([]strategy.Move, 2*sp.Memory()),
	}
}

// findState linearly scans the state table for the view, returning its ID.
// This is intentionally O(numStates * viewLen): it reproduces the paper's
// lookup cost. It panics if the view is not found (impossible by
// construction).
func (e *SearchEngine) findState(view []strategy.Move) uint32 {
scan:
	for id, cand := range e.table {
		for i := range cand {
			if cand[i] != view[i] {
				continue scan
			}
		}
		return uint32(id)
	}
	panic("game: view not present in state table")
}

// Play runs one match with the linear-search state lookup. Semantics are
// identical to Play; only the lookup cost differs.
func (e *SearchEngine) Play(rules Rules, s0, s1 strategy.Strategy, src *rng.Source) Result {
	if s0.Space() != e.space || s1.Space() != e.space {
		panic("game: strategy space does not match engine")
	}
	res := Result{Rounds: rules.Rounds}
	for i := range e.view0 {
		e.view0[i] = strategy.Cooperate
		e.view1[i] = strategy.Cooperate
	}
	for r := 0; r < rules.Rounds; r++ {
		st0 := e.findState(e.view0)
		st1 := e.findState(e.view1)
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
		// Shift the views: drop the oldest round, append the new one.
		shiftView(e.view0, m0, m1)
		shiftView(e.view1, m1, m0)
	}
	return res
}

func shiftView(view []strategy.Move, my, opp strategy.Move) {
	copy(view, view[2:])
	view[len(view)-2] = my
	view[len(view)-1] = opp
}
