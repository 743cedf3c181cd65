package game

import (
	"testing"

	"repro/internal/strategy"
)

func fpOf(t *testing.T, s strategy.Strategy) strategy.Fingerprint {
	t.Helper()
	fp, ok := strategy.CanonicalFingerprint(s)
	if !ok {
		t.Fatalf("strategy %v not fingerprintable", s)
	}
	return fp
}

func testKey(i int) PairKey {
	return PairKey{A: strategy.Fingerprint{Hi: uint64(i)}, B: strategy.Fingerprint{Lo: uint64(i)}, Rounds: 200}
}

func TestPairCacheHitMissUpdate(t *testing.T) {
	c := NewPairCache(8)
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 2.5)
	if v, ok := c.Get(k); !ok || v != 2.5 {
		t.Fatalf("got (%v,%v), want (2.5,true)", v, ok)
	}
	c.Put(k, 3.5) // update in place, no growth
	if v, ok := c.Get(k); !ok || v != 3.5 {
		t.Fatalf("after update got (%v,%v), want (3.5,true)", v, ok)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("len %d after re-put, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss / 0 evictions", st)
	}
	if got := st.HitRate(); got != 2.0/3.0 {
		t.Fatalf("hit rate %v, want 2/3", got)
	}
}

func TestPairCacheEvictsLRU(t *testing.T) {
	c := NewPairCache(3)
	for i := 0; i < 3; i++ {
		c.Put(testKey(i), float64(i))
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Put(testKey(3), 3)
	if n := c.Stats().Entries; n != 3 {
		t.Fatalf("len %d after eviction, want 3 (cap)", n)
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("LRU key 1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("key %d evicted unexpectedly", i)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
}

func TestPairCacheStaysBounded(t *testing.T) {
	c := NewPairCache(16)
	for i := 0; i < 1000; i++ {
		c.Put(testKey(i), float64(i))
		if n := c.Stats().Entries; n > 16 {
			t.Fatalf("len %d exceeds cap 16 at insert %d", n, i)
		}
	}
	st := c.Stats()
	if st.Entries != 16 || st.Evictions != 1000-16 {
		t.Fatalf("stats %+v, want 16 entries and %d evictions", st, 1000-16)
	}
}

func TestPairCacheDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		if got := NewPairCache(capacity).Stats().Capacity; got != DefaultPairCacheSize {
			t.Fatalf("NewPairCache(%d) bound = %d, want %d", capacity, got, DefaultPairCacheSize)
		}
	}
}

func TestPairKeySeparatesParameters(t *testing.T) {
	a := strategy.Fingerprint{Hi: 1, Lo: 2}
	b := strategy.Fingerprint{Hi: 3, Lo: 4}
	base := NewPairKey(a, b, Rules{Rounds: 200}, false)
	variants := []PairKey{
		NewPairKey(b, a, Rules{Rounds: 200}, false),                  // order matters
		NewPairKey(a, b, Rules{Rounds: 100}, false),                  // rounds
		NewPairKey(a, b, Rules{Rounds: 200, ErrorRate: 0.01}, false), // noise
		NewPairKey(a, b, Rules{Rounds: 200}, true),                   // exact mode
	}
	for i, v := range variants {
		if v == base {
			t.Fatalf("variant %d collides with base key", i)
		}
	}
}

func TestCacheStatsMerge(t *testing.T) {
	s := CacheStats{Hits: 1, Misses: 2, Evictions: 3, Entries: 4, Capacity: 8}
	s.Merge(CacheStats{Hits: 10, Misses: 20, Evictions: 30, Entries: 5, Capacity: 8})
	want := CacheStats{Hits: 11, Misses: 22, Evictions: 33, Entries: 9, Capacity: 16}
	if s != want {
		t.Fatalf("merged %+v, want %+v", s, want)
	}
}

func TestPairCacheContentAddressing(t *testing.T) {
	// An entry stored under the fingerprint of one Strategy value must be
	// served to a behaviourally identical but distinct value — that is what
	// lets cached payoffs survive mutation churn.
	sp := strategy.NewSpace(1)
	tft, err := strategy.ParsePure("0101")
	if err != nil {
		t.Fatal(err)
	}
	alld, err := strategy.ParsePure("1111")
	if err != nil {
		t.Fatal(err)
	}
	rules := DefaultRules()
	c := NewPairCache(8)
	k1 := NewPairKey(fpOf(t, tft), fpOf(t, alld), rules, false)
	c.Put(k1, 0.995)
	// Same behaviour, fresh values — including a degenerate mixed twin.
	tft2 := tft.Clone()
	alldMixed := strategy.MixedFromProbs(sp, []float64{0, 0, 0, 0})
	k2 := NewPairKey(fpOf(t, tft2), fpOf(t, alldMixed), rules, false)
	if k1 != k2 {
		t.Fatalf("behaviourally equal pairs got distinct keys:\n%+v\n%+v", k1, k2)
	}
	if v, ok := c.Get(k2); !ok || v != 0.995 {
		t.Fatalf("content-addressed lookup got (%v,%v), want (0.995,true)", v, ok)
	}
}
