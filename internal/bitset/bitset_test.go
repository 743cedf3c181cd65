package bitset

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewAllZero(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Count() != 0 {
		t.Fatalf("new bitset has %d set bits", b.Count())
	}
	for i := 0; i < 130; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d set in new bitset", i)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGet(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		b.Set(i, true)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		b.Set(i, false)
		if b.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

// TestOutOfRangePanics also pins the message: the panic value formats it
// lazily (rangeError) so Get and Set inline, and it must still name the
// operation, the index and the length.
func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for want, f := range map[string]func(){
		"bitset: Get(-1) out of range [0,10)": func() { b.Get(-1) },
		"bitset: Get(10) out of range [0,10)": func() { b.Get(10) },
		"bitset: Set(10) out of range [0,10)": func() { b.Set(10, true) },
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("panic value %q, want %q", got, want)
				}
			}()
			f()
		}()
	}
}

func TestCount(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 3 {
		b.Set(i, true)
	}
	if got, want := b.Count(), 34; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestSetAllRespectsLength(t *testing.T) {
	b := New(70)
	b.SetAll()
	if b.Count() != 70 {
		t.Fatalf("SetAll count = %d, want 70 (tail bits must stay clear)", b.Count())
	}
}

func TestCloneIndependent(t *testing.T) {
	b := New(64)
	b.Set(5, true)
	c := b.Clone()
	c.Set(6, true)
	if b.Get(6) {
		t.Fatal("Clone shares storage")
	}
	if !c.Get(5) {
		t.Fatal("Clone lost bits")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(100), New(100)
	if !a.Equal(b) {
		t.Fatal("empty bitsets not equal")
	}
	a.Set(99, true)
	if a.Equal(b) {
		t.Fatal("different bitsets reported equal")
	}
	b.Set(99, true)
	if !a.Equal(b) {
		t.Fatal("identical bitsets reported unequal")
	}
	if a.Equal(New(101)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	b := New(9)
	b.Set(1, true)
	b.Set(3, true)
	if got, want := b.String(), "010100000"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	p, err := ParseBits(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(b) {
		t.Fatal("ParseBits round trip failed")
	}
}

func TestParseBitsRejectsJunk(t *testing.T) {
	if _, err := ParseBits("0102"); err == nil {
		t.Fatal("ParseBits accepted invalid character")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	b := New(130)
	b.Set(0, true)
	b.Set(129, true)
	b.Set(77, true)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var c Bitset
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(b) {
		t.Fatal("binary round trip failed")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	var b Bitset
	if err := b.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted truncated header")
	}
	good, _ := New(128).MarshalBinary()
	if err := b.UnmarshalBinary(good[:12]); err == nil {
		t.Fatal("accepted truncated payload")
	}
}

// A bit count of 2^31 or more is refused as the uint64 it arrives as: where
// int is 32 bits, converting it first made it negative and make panicked.
func TestUnmarshalRejectsLengthPastInt(t *testing.T) {
	for _, n := range []uint64{1 << 31, 1<<32 - 1, 1 << 32, 1<<63 + 5} {
		data := make([]byte, 16)
		putU64(data, n)
		var b Bitset
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("a %d-bit header over one word accepted", n)
		}
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := New(4096)
	b := New(4096)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal bitsets have different fingerprints")
	}
	b.Set(2048, true)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("single-bit difference not reflected in fingerprint")
	}
}

// Property: String/ParseBits round trip for arbitrary bit patterns.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(words []uint64, nBits uint16) bool {
		n := int(nBits % 300)
		b := New(n)
		copy(b.words, words)
		b.trim()
		p, err := ParseBits(b.String())
		return err == nil && p.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClone4096(b *testing.B) {
	x := New(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Clone()
	}
}
