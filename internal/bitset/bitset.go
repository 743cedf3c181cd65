// Package bitset implements a dense, fixed-length bit vector.
//
// Pure memory-n strategies are points in {C,D}^(4^n); for memory-six that is
// a 4096-bit vector. The simulation stores, copies, mutates, compares, and
// serializes millions of these, so the representation is 64-bit words with
// O(words) bulk operations.
package bitset

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-length sequence of bits. The zero value is an empty
// (length-0) bitset; use New for a sized one.
type Bitset struct {
	n     int
	words []uint64
}

// New returns a Bitset of n bits, all zero. It panics if n < 0.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Bitset{n: n, words: make([]uint64, wordsFor(n))}
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// trim clears any bits beyond the logical length in the last word so that
// Equal and Count stay exact.
func (b *Bitset) trim() {
	if b.n%wordBits != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(b.n%wordBits)) - 1
	}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Words returns the underlying words (not a copy). The caller must not
// modify bits beyond Len.
func (b *Bitset) Words() []uint64 { return b.words }

// rangeError is the panic value of an out-of-range Get or Set. The message is
// formatted only if somebody reads it, which keeps both accessors within the
// compiler's inlining budget: a strategy lookup is one bit read.
type rangeError struct {
	op   string
	i, n int
}

func (e rangeError) Error() string {
	return fmt.Sprintf("bitset: %s(%d) out of range [0,%d)", e.op, e.i, e.n)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (b *Bitset) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(rangeError{"Get", i, b.n})
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i to v. It panics if i is out of range.
func (b *Bitset) Set(i int, v bool) {
	if i < 0 || i >= b.n {
		panic(rangeError{"Set", i, b.n})
	}
	if v {
		b.words[i/wordBits] |= 1 << uint(i%wordBits)
	} else {
		b.words[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Equal reports whether the two bitsets have identical length and bits.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetAll sets every bit.
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Fingerprint returns a 64-bit mixing hash of the contents, usable as a map
// key component for deduplicating strategies.
func (b *Bitset) Fingerprint() uint64 {
	h := uint64(b.n)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for _, w := range b.words {
		h ^= w
		h *= 0x100000001B3
		h ^= h >> 29
	}
	return h
}

// String renders the bits as a 0/1 string, bit 0 first (matching the paper's
// strategy tables, where column k is the move in state k).
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseBits parses a 0/1 string produced by String.
func ParseBits(s string) (*Bitset, error) {
	b := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			b.Set(i, true)
		default:
			return nil, fmt.Errorf("bitset: invalid character %q at %d", s[i], i)
		}
	}
	return b, nil
}

// MarshalBinary encodes the bitset as 8 bytes of little-endian length
// followed by the words in little-endian order.
func (b *Bitset) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(b.words))
	putU64(out, uint64(b.n))
	for i, w := range b.words {
		putU64(out[8+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes data produced by MarshalBinary.
func (b *Bitset) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return errors.New("bitset: truncated header")
	}
	n := getU64(data)
	// Bounded as the unsigned word it arrives as: converted first, a length
	// of 2^31 or more would turn negative where int is 32 bits.
	if n > min(1<<32, math.MaxInt) {
		return fmt.Errorf("bitset: implausible length %d", n)
	}
	nw := int((n + wordBits - 1) / wordBits)
	if len(data) < 8+8*nw {
		return errors.New("bitset: truncated payload")
	}
	b.n = int(n)
	b.words = make([]uint64, nw)
	for i := range b.words {
		b.words[i] = getU64(data[8+8*i:])
	}
	b.trim()
	return nil
}

func putU64(p []byte, v uint64) {
	_ = p[7]
	p[0] = byte(v)
	p[1] = byte(v >> 8)
	p[2] = byte(v >> 16)
	p[3] = byte(v >> 24)
	p[4] = byte(v >> 32)
	p[5] = byte(v >> 40)
	p[6] = byte(v >> 48)
	p[7] = byte(v >> 56)
}

func getU64(p []byte) uint64 {
	_ = p[7]
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}
