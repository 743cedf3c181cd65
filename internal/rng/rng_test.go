package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded stream produced duplicates: %d unique of 100", len(seen))
	}
}

func TestDeriveIsPure(t *testing.T) {
	m := New(7)
	a := m.Derive(3, 5)
	b := m.Derive(3, 5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive with identical keys gave different streams")
		}
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	m1 := New(7)
	m2 := New(7)
	_ = m1.Derive(1)
	_ = m1.Derive(2, 3)
	for i := 0; i < 10; i++ {
		if m1.Uint64() != m2.Uint64() {
			t.Fatal("Derive advanced the parent stream")
		}
	}
}

// TestDeriveIntoMatchesDerive pins the one derivation both forms share:
// DeriveInto leaves dst on exactly the stream Derive returns, whatever dst
// held before (including the parent itself), and does not advance the parent.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	for _, keys := range [][]uint64{nil, {0}, {3, 5}, {0x6A3E, 7, 1, 2}} {
		m, twin := New(13), New(13)
		want := m.Derive(keys...)
		dst := New(99) // stale state DeriveInto must overwrite
		m.DeriveInto(dst, keys...)
		twin.DeriveInto(twin, keys...)
		for i := 0; i < 100; i++ {
			w := want.Uint64()
			if g := dst.Uint64(); g != w {
				t.Fatalf("keys %v draw %d: DeriveInto %#x, Derive %#x", keys, i, g, w)
			}
			if g := twin.Uint64(); g != w {
				t.Fatalf("keys %v draw %d: DeriveInto onto the parent itself %#x, Derive %#x", keys, i, g, w)
			}
		}
		if m.Uint64() != New(13).Uint64() {
			t.Fatalf("keys %v: DeriveInto advanced the parent", keys)
		}
	}
	// The derivation itself is part of every run's trajectory: these are the
	// first draws of two derived streams, pinned so neither form can drift.
	if got := New(13).Derive(0x6A3E, 7, 1, 2).Uint64(); got != 0x69e0bf00eabc7768 {
		t.Fatalf("Derive(0x6A3E, 7, 1, 2) first draw %#x", got)
	}
	if got := New(13).Derive().Uint64(); got != 0xf4d7a2de6eadab7b {
		t.Fatalf("Derive() first draw %#x", got)
	}
}

// TestStateRoundTrip pins what a kernel that steps the words itself relies
// on: SetState of State's words resumes the stream where State read it, in
// another Source as in the same one.
func TestStateRoundTrip(t *testing.T) {
	s := New(17)
	s.Uint64()
	w := s.State()
	want := [3]uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	var c Source
	c.SetState(w)
	s.SetState(w)
	for i, x := range want {
		if g, h := c.Uint64(), s.Uint64(); g != x || h != x {
			t.Fatalf("draw %d after SetState: %#x and %#x, want %#x", i, g, h, x)
		}
	}
}

func TestDeriveKeysIndependent(t *testing.T) {
	m := New(9)
	a := m.Derive(0)
	b := m.Derive(1)
	c := m.Derive(0, 0)
	streams := []*Source{a, b, c}
	outs := make([][]uint64, len(streams))
	for i, s := range streams {
		for j := 0; j < 50; j++ {
			outs[i] = append(outs[i], s.Uint64())
		}
	}
	for i := 0; i < len(outs); i++ {
		for j := i + 1; j < len(outs); j++ {
			same := 0
			for k := range outs[i] {
				if outs[i][k] == outs[j][k] {
					same++
				}
			}
			if same > 0 {
				t.Errorf("streams %d and %d collide at %d positions", i, j, same)
			}
		}
	}
}

func TestDeriveKeyOrderMatters(t *testing.T) {
	m := New(11)
	a := m.Derive(1, 2)
	b := m.Derive(2, 1)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("key order should distinguish derived streams")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	s := New(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v", i, c, want)
		}
	}
}

func TestPairDistinct(t *testing.T) {
	s := New(8)
	for i := 0; i < 10000; i++ {
		a, b := s.Pair(5)
		if a == b {
			t.Fatal("Pair returned equal indices")
		}
		if a < 0 || a >= 5 || b < 0 || b >= 5 {
			t.Fatalf("Pair out of range: %d,%d", a, b)
		}
	}
}

func TestPairCoversAllOrderedPairs(t *testing.T) {
	s := New(9)
	seen := map[[2]int]int{}
	const n = 4
	for i := 0; i < 50000; i++ {
		a, b := s.Pair(n)
		seen[[2]int{a, b}]++
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("Pair covered %d ordered pairs, want %d", len(seen), n*(n-1))
	}
	want := 50000.0 / float64(n*(n-1))
	for p, c := range seen {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("pair %v count %d deviates from %v", p, c, want)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(12)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, got)
	}
}

// Property: Uint64n(n) < n for arbitrary positive n.
func TestUint64nProperty(t *testing.T) {
	f := func(seed, n uint64) bool {
		if n == 0 {
			n = 1
		}
		s := New(seed)
		for i := 0; i < 20; i++ {
			if s.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x = s.Uint64()
	}
	_ = x
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var x int
	for i := 0; i < b.N; i++ {
		x = s.Intn(1000)
	}
	_ = x
}

func BenchmarkDerive(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Derive(uint64(i), uint64(i*3))
	}
}
