package strategy

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/rng"
)

// Strategy is a behavioural rule: given the current state it yields the next
// move. Pure strategies answer deterministically; mixed strategies sample.
type Strategy interface {
	// Space returns the memory-n space the strategy is defined over.
	Space() Space
	// CooperateProb returns the probability of cooperating in the state.
	CooperateProb(state uint32) float64
	// Move returns the next move for the state, drawing randomness from src
	// when the strategy is mixed. Pure strategies ignore src.
	Move(state uint32, src *rng.Source) Move
	// Clone returns a deep copy.
	Clone() Strategy
	// Equal reports structural equality with another strategy.
	Equal(Strategy) bool
	// Fingerprint returns a 64-bit content hash for fast dedup/abundance.
	Fingerprint() uint64
	// String renders the response table, state 0 first.
	String() string
}

// Pure is a deterministic strategy: one move per state, bit-packed.
type Pure struct {
	space Space
	bits  *bitset.Bitset // bit k set => Defect in state k
}

// NewPure returns the all-cooperate pure strategy in the given space.
func NewPure(sp Space) *Pure {
	return &Pure{space: sp, bits: bitset.New(sp.NumStates())}
}

// PureFromBits builds a pure strategy from a bitset whose length must equal
// the space's state count. The bitset is used directly (not copied).
func PureFromBits(sp Space, b *bitset.Bitset) *Pure {
	if b.Len() != sp.NumStates() {
		panic(fmt.Sprintf("strategy: bitset length %d != %d states", b.Len(), sp.NumStates()))
	}
	return &Pure{space: sp, bits: b}
}

// ParsePure parses a 0/1 response string ("0101" = memory-one WSLS in the
// paper's binary order) into a pure strategy of the matching space.
func ParsePure(s string) (*Pure, error) {
	n := 0
	for n = 1; n <= MaxMemory; n++ {
		if 1<<uint(2*n) == len(s) {
			break
		}
	}
	if n > MaxMemory {
		return nil, fmt.Errorf("strategy: response length %d is not 4^n for n in [1,%d]", len(s), MaxMemory)
	}
	b, err := bitset.ParseBits(s)
	if err != nil {
		return nil, err
	}
	return PureFromBits(NewSpace(n), b), nil
}

// Space returns the strategy's space.
func (p *Pure) Space() Space { return p.space }

// MoveAt returns the deterministic move in the state.
func (p *Pure) MoveAt(state uint32) Move {
	if p.bits.Get(int(state)) {
		return Defect
	}
	return Cooperate
}

// Move implements Strategy.
func (p *Pure) Move(state uint32, _ *rng.Source) Move { return p.MoveAt(state) }

// CooperateProb implements Strategy: 0 or 1.
func (p *Pure) CooperateProb(state uint32) float64 {
	if p.bits.Get(int(state)) {
		return 0
	}
	return 1
}

// SetMove assigns the move for a state.
func (p *Pure) SetMove(state uint32, m Move) { p.bits.Set(int(state), m == Defect) }

// Bits exposes the underlying response bitset (bit set = Defect).
func (p *Pure) Bits() *bitset.Bitset { return p.bits }

// Clone implements Strategy.
func (p *Pure) Clone() Strategy { return &Pure{space: p.space, bits: p.bits.Clone()} }

// Equal implements Strategy.
func (p *Pure) Equal(o Strategy) bool {
	q, ok := o.(*Pure)
	return ok && p.space == q.space && p.bits.Equal(q.bits)
}

// Fingerprint implements Strategy.
func (p *Pure) Fingerprint() uint64 { return p.bits.Fingerprint() }

// String implements Strategy: "0" cooperate / "1" defect per state.
func (p *Pure) String() string { return p.bits.String() }

// Mixed is a probabilistic strategy: per-state cooperation probability.
type Mixed struct {
	space Space
	p     []float64 // probability of cooperating in state k
}

// NewMixed returns a mixed strategy cooperating with probability 0.5
// everywhere.
func NewMixed(sp Space) *Mixed {
	m := &Mixed{space: sp, p: make([]float64, sp.NumStates())}
	for i := range m.p {
		m.p[i] = 0.5
	}
	return m
}

// MixedFromProbs builds a mixed strategy from explicit cooperation
// probabilities (len must equal NumStates; values clamped to [0,1]).
func MixedFromProbs(sp Space, probs []float64) *Mixed {
	if len(probs) != sp.NumStates() {
		panic(fmt.Sprintf("strategy: %d probs for %d states", len(probs), sp.NumStates()))
	}
	m := &Mixed{space: sp, p: make([]float64, len(probs))}
	for i, v := range probs {
		m.p[i] = clamp01(v)
	}
	return m
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Space returns the strategy's space.
func (m *Mixed) Space() Space { return m.space }

// CooperateProb implements Strategy.
func (m *Mixed) CooperateProb(state uint32) float64 { return m.p[state] }

// SetProb assigns the cooperation probability for a state (clamped).
func (m *Mixed) SetProb(state uint32, p float64) { m.p[state] = clamp01(p) }

// Probs exposes the underlying probability table.
func (m *Mixed) Probs() []float64 { return m.p }

// Move implements Strategy.
func (m *Mixed) Move(state uint32, src *rng.Source) Move {
	if src.Bernoulli(m.p[state]) {
		return Cooperate
	}
	return Defect
}

// Clone implements Strategy.
func (m *Mixed) Clone() Strategy {
	q := &Mixed{space: m.space, p: make([]float64, len(m.p))}
	copy(q.p, m.p)
	return q
}

// Equal implements Strategy.
func (m *Mixed) Equal(o Strategy) bool {
	q, ok := o.(*Mixed)
	if !ok || m.space != q.space {
		return false
	}
	for i := range m.p {
		if m.p[i] != q.p[i] {
			return false
		}
	}
	return true
}

// Fingerprint implements Strategy.
func (m *Mixed) Fingerprint() uint64 {
	h := uint64(m.space.NumStates())*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for _, v := range m.p {
		// Quantise to 1e-6 so fingerprints are stable across serialisation.
		// The float64 rounds the product before the unsigned conversion,
		// whose out-of-range branch ppc64le, riscv64 and loong64 would
		// otherwise fuse with it into a multiply-subtract.
		q := uint64(float64(v * 1e6))
		h ^= q
		h *= 0x100000001B3
		h ^= h >> 31
	}
	return h
}

// String implements Strategy: probabilities to two decimals.
func (m *Mixed) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range m.p {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.2f", v)
	}
	sb.WriteByte(']')
	return sb.String()
}

// NearestPure returns the pure strategy obtained by rounding each state's
// cooperation probability (ties, p == 0.5, round toward defection so the
// map is deterministic).
func (m *Mixed) NearestPure() *Pure {
	p := NewPure(m.space)
	for i, v := range m.p {
		if v <= 0.5 {
			p.bits.Set(i, true)
		}
	}
	return p
}

// RandomPure draws a uniform pure strategy: every state's move is an
// independent fair coin. This is the paper's gen_new_strat for pure runs.
func RandomPure(sp Space, src *rng.Source) *Pure {
	p := NewPure(sp)
	words := p.bits.Words()
	for i := range words {
		words[i] = src.Uint64()
	}
	// Clear tail bits beyond NumStates (none in practice: 4^n is a multiple
	// of 64 for n >= 3 and < 64 only for n in {1,2}).
	if sp.NumStates() < 64 {
		words[0] &= 1<<uint(sp.NumStates()) - 1
	}
	return p
}

// RandomMixed draws a mixed strategy with independent Uniform[0,1]
// cooperation probabilities per state, the probabilistic gen_new_strat.
func RandomMixed(sp Space, src *rng.Source) *Mixed {
	m := &Mixed{space: sp, p: make([]float64, sp.NumStates())}
	for i := range m.p {
		m.p[i] = src.Float64()
	}
	return m
}

// EnumeratePure yields every pure strategy in the space in lexicographic
// order. It panics if the space has more than 2^20 strategies (memory one
// and, with care, memory two only; Table III of the paper is memory one).
func EnumeratePure(sp Space) []*Pure {
	if sp.NumStates() > 20 {
		panic("strategy: EnumeratePure space too large")
	}
	total := 1 << uint(sp.NumStates())
	out := make([]*Pure, total)
	for code := 0; code < total; code++ {
		p := NewPure(sp)
		for s := 0; s < sp.NumStates(); s++ {
			if code&(1<<uint(s)) != 0 {
				p.bits.Set(s, true)
			}
		}
		out[code] = p
	}
	return out
}
