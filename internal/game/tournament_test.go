package game

import (
	"testing"

	"repro/internal/strategy"
)

func classicEntrants(t *testing.T, mem int) []Entrant {
	t.Helper()
	space := strategy.NewSpace(mem)
	names := []string{"ALLC", "ALLD", "TFT", "WSLS", "GRIM", "GTFT"}
	out := make([]Entrant, 0, len(names))
	for _, n := range names {
		s, err := strategy.Named(n, space)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Entrant{Name: n, Strategy: s})
	}
	return out
}

func TestTournamentAxelrodShape(t *testing.T) {
	// In a noise-free field with nice reciprocators and ALLD, TFT-family
	// strategies finish ahead of ALLD (Axelrod's headline result) and
	// nobody scores below zero.
	standings, err := Tournament(DefaultRules(), classicEntrants(t, 1), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, s := range standings {
		rank[s.Name] = i
		if s.TotalScore < 0 {
			t.Errorf("%s scored %v < 0", s.Name, s.TotalScore)
		}
		if s.Matches == 0 {
			t.Errorf("%s played no matches", s.Name)
		}
	}
	if rank["TFT"] > rank["ALLD"] {
		t.Errorf("ALLD (rank %d) finished ahead of TFT (rank %d)", rank["ALLD"], rank["TFT"])
	}
	if rank["ALLC"] == 0 {
		t.Error("ALLC should not win a field containing ALLD")
	}
}

func TestTournamentWithNoiseFavoursWSLSOverTFT(t *testing.T) {
	// Paper §III-E: WSLS outperforms TFT in the presence of errors.
	rules := DefaultRules()
	rules.ErrorRate = 0.05
	entrants := classicEntrants(t, 1)
	standings, err := Tournament(rules, entrants, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	var wsls, tft float64
	for _, s := range standings {
		switch s.Name {
		case "WSLS":
			wsls = s.TotalScore
		case "TFT":
			tft = s.TotalScore
		}
	}
	if wsls <= tft {
		t.Fatalf("with 5%% errors WSLS (%v) should outscore TFT (%v)", wsls, tft)
	}
}

func TestTournamentSortedDescending(t *testing.T) {
	standings, err := Tournament(DefaultRules(), classicEntrants(t, 2), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(standings); i++ {
		if standings[i].TotalScore > standings[i-1].TotalScore {
			t.Fatal("standings not sorted by score")
		}
	}
}

func TestTournamentDeterministic(t *testing.T) {
	a, err := Tournament(DefaultRules(), classicEntrants(t, 1), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tournament(DefaultRules(), classicEntrants(t, 1), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("standings differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTournamentValidation(t *testing.T) {
	es := classicEntrants(t, 1)
	if _, err := Tournament(DefaultRules(), es[:1], 1, 1); err == nil {
		t.Fatal("single entrant accepted")
	}
	if _, err := Tournament(DefaultRules(), es, 0, 1); err == nil {
		t.Fatal("zero repeats accepted")
	}
	bad := DefaultRules()
	bad.Rounds = -1
	if _, err := Tournament(bad, es, 1, 1); err == nil {
		t.Fatal("bad rules accepted")
	}
	mixed := append([]Entrant{}, es...)
	mixed[0].Strategy = strategy.AllC(strategy.NewSpace(2))
	if _, err := Tournament(DefaultRules(), mixed, 1, 1); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
}
