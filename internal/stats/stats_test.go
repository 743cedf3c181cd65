package stats

import "testing"

func TestSeriesStride(t *testing.T) {
	s, err := NewSeries(10)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 100; g++ {
		s.Observe(g, float64(g))
	}
	if s.Len() != 10 {
		t.Fatalf("kept %d samples", s.Len())
	}
	g, v := s.At(3)
	if g != 30 || v != 30 {
		t.Fatalf("At(3) = %d,%v", g, v)
	}
	lg, lv, ok := s.Last()
	if !ok || lg != 90 || lv != 90 {
		t.Fatalf("Last = %d,%v,%v", lg, lv, ok)
	}
}

// Truncate rolls the series back to an earlier observation point, and
// re-observing from there reproduces the uninterrupted series — the
// roll-back a live-evicted run performs before replaying a generation.
func TestSeriesTruncate(t *testing.T) {
	s, err := NewSeries(5)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 40; g++ {
		s.Observe(g, float64(g))
	}
	if s.Len() != 8 {
		t.Fatalf("kept %d samples, want 8", s.Len())
	}
	s.Truncate(4) // roll back to before generation 20
	if s.Len() != 4 {
		t.Fatalf("after truncate kept %d, want 4", s.Len())
	}
	for g := 20; g < 40; g++ {
		s.Observe(g, float64(g))
	}
	if s.Len() != 8 {
		t.Fatalf("after replay kept %d, want 8", s.Len())
	}
	for i := 0; i < 8; i++ {
		if g, v := s.At(i); g != i*5 || v != float64(i*5) {
			t.Fatalf("At(%d) = %d,%v after truncate+replay", i, g, v)
		}
	}
	// Out-of-range truncations are no-ops.
	s.Truncate(-1)
	s.Truncate(8)
	s.Truncate(100)
	if s.Len() != 8 {
		t.Fatalf("no-op truncate changed length to %d", s.Len())
	}
	s.Truncate(0)
	if s.Len() != 0 {
		t.Fatalf("Truncate(0) kept %d samples", s.Len())
	}
}

func TestSeriesValidationAndEmpty(t *testing.T) {
	if _, err := NewSeries(0); err == nil {
		t.Fatal("stride 0 accepted")
	}
	s, _ := NewSeries(1)
	if _, _, ok := s.Last(); ok {
		t.Fatal("empty Last ok")
	}
}

func TestAbundance(t *testing.T) {
	a := NewAbundance()
	if a.Distinct() != 0 {
		t.Fatalf("empty tally has %d distinct", a.Distinct())
	}
	for i := 0; i < 85; i++ {
		a.Add(111)
	}
	for i := 0; i < 10; i++ {
		a.Add(222)
	}
	for i := 0; i < 5; i++ {
		a.Add(333)
	}
	if a.Distinct() != 3 {
		t.Fatalf("distinct %d, want 3", a.Distinct())
	}
}
