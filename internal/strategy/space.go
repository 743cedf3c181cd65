// Package strategy implements memory-n behavioural strategies for the
// Iterated Prisoner's Dilemma.
//
// A *state* encodes the joint moves of the last n rounds. Each round
// contributes two bits, (myMove<<1 | oppMove), with the most recent round in
// the two low-order bits, so a memory-n space has 4^n states. (The paper's
// Table V lists memory-one states in the Gray-like order 00,01,11,10; we use
// the natural binary order 00,01,10,11 and document the mapping — the
// dynamics are identical, only row labels differ.)
//
// A *pure* strategy assigns a deterministic move to every state (a point in
// {C,D}^(4^n), stored as a bitset: 2^16 strategies at memory two, 2^4096 at
// memory six). A *mixed* strategy assigns each state a probability of
// cooperating.
package strategy

import "fmt"

// Move is a single play in the Prisoner's Dilemma.
type Move uint8

const (
	// Cooperate is move C, encoded 0 as in the paper.
	Cooperate Move = 0
	// Defect is move D, encoded 1 as in the paper.
	Defect Move = 1
)

// String returns "C" or "D".
func (m Move) String() string {
	if m == Cooperate {
		return "C"
	}
	return "D"
}

// MaxMemory is the largest supported memory depth. Memory six gives
// 4^6 = 4096 states and 2^4096 pure strategies, the paper's maximum.
const MaxMemory = 6

// Space describes a memory-n strategy space.
type Space struct {
	memory    int
	numStates int
	mask      uint32 // low 2n bits
}

// NewSpace returns the memory-n space. It panics unless 1 <= n <= MaxMemory.
func NewSpace(n int) Space {
	if n < 1 || n > MaxMemory {
		panic(fmt.Sprintf("strategy: memory %d out of range [1,%d]", n, MaxMemory))
	}
	return Space{memory: n, numStates: 1 << uint(2*n), mask: 1<<uint(2*n) - 1}
}

// Memory returns the number of remembered rounds n.
func (s Space) Memory() int { return s.memory }

// NumStates returns 4^n.
func (s Space) NumStates() int { return s.numStates }

// RoundBits packs one round's pair of moves into two bits.
func RoundBits(my, opp Move) uint32 { return uint32(my)<<1 | uint32(opp) }

// NextState advances a state by one round: the oldest round's bits are
// shifted out, the new round (my, opp) enters the low bits.
func (s Space) NextState(state uint32, my, opp Move) uint32 {
	return ((state << 2) | RoundBits(my, opp)) & s.mask
}

// InitialState is the state before any round is played: the view is
// initialised to mutual cooperation for all n remembered rounds, matching
// the paper's current_view zero-initialisation (so TFT opens with C).
func (s Space) InitialState() uint32 { return 0 }

// Opposing converts a state seen by one player into the state seen by the
// opponent: within every round the two move bits swap.
func (s Space) Opposing(state uint32) uint32 {
	// Swap odd (my) and even (opp) bit lanes.
	my := (state >> 1) & 0x55555555
	opp := state & 0x55555555
	return ((opp<<1 | my) & s.mask)
}

// DescribeState renders a state as n rounds "my/opp", oldest first,
// e.g. memory-2 state for (CD then DC) -> "CD,DC".
func (s Space) DescribeState(state uint32) string {
	buf := make([]byte, 0, 3*s.memory)
	for r := s.memory - 1; r >= 0; r-- {
		pair := (state >> uint(2*r)) & 3
		my := Move(pair >> 1)
		opp := Move(pair & 1)
		buf = append(buf, my.String()[0], opp.String()[0])
		if r > 0 {
			buf = append(buf, ',')
		}
	}
	return string(buf)
}

// StateTable materialises the global `states` array of the paper: the view
// (as move pairs, oldest round first) for every state ID. It is the table
// the paper's find_state searches linearly each round; we expose it so the
// paper-faithful engine (and its cost profile) can be reproduced exactly.
func (s Space) StateTable() [][]Move {
	tbl := make([][]Move, s.numStates)
	for id := 0; id < s.numStates; id++ {
		view := make([]Move, 0, 2*s.memory)
		for r := s.memory - 1; r >= 0; r-- {
			pair := (uint32(id) >> uint(2*r)) & 3
			view = append(view, Move(pair>>1), Move(pair&1))
		}
		tbl[id] = view
	}
	return tbl
}
