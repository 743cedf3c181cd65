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
	if pts := s.Points(); len(pts) != 10 || pts[3] != (Point{30, 30}) {
		t.Fatalf("kept %+v", pts)
	}
	lg, lv, ok := s.Last()
	if !ok || lg != 90 || lv != 90 {
		t.Fatalf("Last = %d,%v,%v", lg, lv, ok)
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
