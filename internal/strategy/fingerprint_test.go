package strategy

import (
	"testing"

	"repro/internal/rng"
)

func TestCanonicalFingerprintStableAcrossClones(t *testing.T) {
	src := rng.New(1)
	for n := 1; n <= 3; n++ {
		sp := NewSpace(n)
		p := RandomPure(sp, src)
		fp1, ok1 := CanonicalFingerprint(p)
		fp2, ok2 := CanonicalFingerprint(p.Clone())
		if !ok1 || !ok2 {
			t.Fatalf("memory-%d pure not fingerprintable", n)
		}
		if fp1 != fp2 {
			t.Fatalf("memory-%d clone fingerprint differs: %x vs %x", n, fp1, fp2)
		}
		m := RandomMixed(sp, src)
		mf1, _ := CanonicalFingerprint(m)
		mf2, _ := CanonicalFingerprint(m.Clone())
		if mf1 != mf2 {
			t.Fatalf("memory-%d mixed clone fingerprint differs", n)
		}
	}
}

func TestCanonicalFingerprintDegenerateMixedEqualsPure(t *testing.T) {
	src := rng.New(2)
	for n := 1; n <= 3; n++ {
		sp := NewSpace(n)
		p := RandomPure(sp, src)
		probs := make([]float64, sp.NumStates())
		for i := range probs {
			probs[i] = p.CooperateProb(uint32(i))
		}
		m := MixedFromProbs(sp, probs)
		if !IsDeterministic(m) {
			t.Fatalf("memory-%d 0/1 mixed not deterministic", n)
		}
		pf, _ := CanonicalFingerprint(p)
		mf, _ := CanonicalFingerprint(m)
		if pf != mf {
			t.Fatalf("memory-%d degenerate mixed %x != pure twin %x", n, mf, pf)
		}
	}
}

func TestCanonicalFingerprintSeparatesMutations(t *testing.T) {
	src := rng.New(3)
	sp := NewSpace(2)
	p := RandomPure(sp, src)
	pf, _ := CanonicalFingerprint(p)
	for s := 0; s < sp.NumStates(); s++ {
		q := p.Clone().(*Pure)
		q.SetMove(uint32(s), q.MoveAt(uint32(s))^1)
		qf, _ := CanonicalFingerprint(q)
		if qf == pf {
			t.Fatalf("flipping state %d did not change the fingerprint", s)
		}
	}
	m := RandomMixed(sp, src)
	mf, _ := CanonicalFingerprint(m)
	q := m.Clone().(*Mixed)
	q.SetProb(3, q.CooperateProb(3)/2+0.25)
	if qf, _ := CanonicalFingerprint(q); qf == mf && !m.Equal(q) {
		t.Fatal("perturbing a mixed probability did not change the fingerprint")
	}
}

func TestCanonicalFingerprintSeparatesMemoryAndKind(t *testing.T) {
	// All-cooperate tables at different depths share the (empty) bit
	// pattern in the low words; the memory tag must still separate them.
	f1, _ := CanonicalFingerprint(NewPure(NewSpace(1)))
	f2, _ := CanonicalFingerprint(NewPure(NewSpace(2)))
	if f1 == f2 {
		t.Fatal("memory-1 and memory-2 AllC share a fingerprint")
	}
	// A non-degenerate mixed table must not collide with any pure table it
	// shadows bitwise.
	m := MixedFromProbs(NewSpace(1), []float64{0.5, 0.5, 0.5, 0.5})
	mf, _ := CanonicalFingerprint(m)
	pf, _ := CanonicalFingerprint(NewPure(NewSpace(1)))
	if mf == pf {
		t.Fatal("mixed table collides with AllC")
	}
}

func TestIsDeterministic(t *testing.T) {
	sp := NewSpace(1)
	if !IsDeterministic(NewPure(sp)) {
		t.Fatal("pure not deterministic")
	}
	if IsDeterministic(NewMixed(sp)) {
		t.Fatal("0.5-mixed reported deterministic")
	}
	if !IsDeterministic(MixedFromProbs(sp, []float64{0, 1, 1, 0})) {
		t.Fatal("0/1 mixed not deterministic")
	}
}

// FuzzFingerprint drives the cache-key determinism contract: equal
// behaviour hashes equal (pure table == degenerate mixed twin, clones ==
// originals) and observable mutations hash differently.
func FuzzFingerprint(f *testing.F) {
	f.Add(uint8(1), uint64(0), uint8(0))
	f.Add(uint8(2), uint64(0xDEADBEEF), uint8(7))
	f.Add(uint8(3), uint64(^uint64(0)), uint8(63))
	f.Fuzz(func(t *testing.T, mem uint8, word uint64, flip uint8) {
		n := int(mem)%3 + 1
		sp := NewSpace(n)
		p := NewPure(sp)
		for s := 0; s < sp.NumStates(); s++ {
			if word&(1<<uint(s%64)) != 0 {
				p.SetMove(uint32(s), Defect)
			}
			word = word*6364136223846793005 + 1442695040888963407
		}
		fp, ok := CanonicalFingerprint(p)
		if !ok {
			t.Fatal("pure strategy not fingerprintable")
		}
		if fp2, _ := CanonicalFingerprint(p.Clone()); fp2 != fp {
			t.Fatal("clone fingerprint differs")
		}
		// Equal behaviour, different representation: the degenerate mixed
		// twin must hash identically.
		probs := make([]float64, sp.NumStates())
		for i := range probs {
			probs[i] = p.CooperateProb(uint32(i))
		}
		if mf, _ := CanonicalFingerprint(MixedFromProbs(sp, probs)); mf != fp {
			t.Fatalf("degenerate mixed twin fingerprint %x != pure %x", mf, fp)
		}
		// A mutated table must hash differently.
		q := p.Clone().(*Pure)
		st := uint32(int(flip) % sp.NumStates())
		q.SetMove(st, q.MoveAt(st)^1)
		if qf, _ := CanonicalFingerprint(q); qf == fp {
			t.Fatal("mutated table fingerprint collides with original")
		}
	})
}
