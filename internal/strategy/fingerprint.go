package strategy

import "math"

// This file defines the canonical 128-bit behavioural fingerprint that
// identifies a strategy type: the engine's Population (internal/sim) interns
// one type id per fingerprint, and each rank's payoff table is indexed by
// those ids. Unlike the 64-bit Strategy.Fingerprint — a display/abundance
// hash that quantises mixed tables to 1e-6 — the canonical fingerprint
// hashes the exact behavioural content and is wide enough to key a
// correctness-critical memo: equal-behaviour strategies hash equal, and any observable
// difference in the response table changes the hash (collisions are
// 2^-128-grade events, not engineering concerns; see docs/KERNEL.md).
//
// Canonicalisation: a Mixed strategy whose every cooperation probability is
// exactly 0 or 1 behaves identically to the corresponding Pure strategy
// (Move is deterministic; rng.Bernoulli consumes no randomness at the
// extremes), so both representations hash to the same fingerprint.

// Fingerprint is a 128-bit content hash of a strategy's behaviour.
// The zero value is not a valid fingerprint of any strategy.
type Fingerprint struct {
	Hi, Lo uint64
}

// Domain-separation tags mixed into the hash so a pure table and a mixed
// table over the same bit pattern can never collide structurally.
const (
	fpKindPure  = 0x70757265 // "pure"
	fpKindMixed = 0x6D697865 // "mixe"
)

// fpLane is one 64-bit lane of the fingerprint: an FNV-style
// xor-multiply-shift mixer. The two lanes use different offsets and
// multipliers so they evolve independently.
type fpLane struct {
	h    uint64
	mult uint64
}

func (l *fpLane) mix(v uint64) {
	l.h ^= v
	l.h *= l.mult
	l.h ^= l.h >> 29
}

func fpLanes(kind, memory int) (fpLane, fpLane) {
	hi := fpLane{h: 0x9E3779B97F4A7C15, mult: 0x100000001B3}
	lo := fpLane{h: 0xD1B54A32D192ED03, mult: 0x9FB21C651E98DF25}
	hi.mix(uint64(kind))
	lo.mix(uint64(kind))
	hi.mix(uint64(memory))
	lo.mix(uint64(memory))
	return hi, lo
}

// IsDeterministic reports whether the strategy's next move is a
// deterministic function of the state: true for every Pure strategy and
// for Mixed strategies whose probabilities are all exactly 0 or 1.
// Deterministic strategies playing an error-free match always produce the
// same Result, which is what makes their pair payoff memoizable.
func IsDeterministic(s Strategy) bool {
	switch v := s.(type) {
	case *Pure:
		return true
	case *Mixed:
		for _, p := range v.p {
			if p != 0 && p != 1 {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// CanonicalFingerprint returns the 128-bit behavioural fingerprint of the
// strategy, canonicalising degenerate Mixed tables (all probabilities 0 or
// 1) to the equivalent Pure encoding. ok is false for strategy
// implementations the canonicaliser does not know, which callers must
// treat as uncacheable.
func CanonicalFingerprint(s Strategy) (fp Fingerprint, ok bool) {
	switch v := s.(type) {
	case *Pure:
		return pureFingerprint(v.space.Memory(), v.bits.Words()), true
	case *Mixed:
		if IsDeterministic(v) {
			return degenerateMixedFingerprint(v), true
		}
		hi, lo := fpLanes(fpKindMixed, v.space.Memory())
		for _, p := range v.p {
			b := math.Float64bits(p)
			hi.mix(b)
			lo.mix(b)
		}
		return Fingerprint{Hi: hi.h, Lo: lo.h}, true
	default:
		return Fingerprint{}, false
	}
}

func pureFingerprint(memory int, words []uint64) Fingerprint {
	hi, lo := fpLanes(fpKindPure, memory)
	for _, w := range words {
		hi.mix(w)
		lo.mix(w)
	}
	return Fingerprint{Hi: hi.h, Lo: lo.h}
}

// degenerateMixedFingerprint packs an all-0/1 probability table into pure
// response words (bit set = Defect, i.e. cooperation probability 0) and
// hashes those, so the degenerate Mixed and its Pure twin agree without
// allocating an intermediate strategy.
func degenerateMixedFingerprint(m *Mixed) Fingerprint {
	words := make([]uint64, (len(m.p)+63)/64)
	for i, p := range m.p {
		if p == 0 {
			words[i/64] |= 1 << uint(i%64)
		}
	}
	return pureFingerprint(m.space.Memory(), words)
}
