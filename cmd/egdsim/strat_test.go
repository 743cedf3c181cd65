package main

import (
	"strings"
	"testing"

	"repro/internal/strategy"
)

func TestParseStrategyClassics(t *testing.T) {
	for _, name := range []string{"WSLS", "wsls", "tft", "ALLD"} {
		s, label, err := parseStrategy(name, 1)
		if err != nil {
			t.Fatalf("parseStrategy(%q): %v", name, err)
		}
		if s.Space().Memory() != 1 {
			t.Fatalf("%q: memory %d", name, s.Space().Memory())
		}
		if label == "custom" {
			t.Fatalf("%q parsed as custom", name)
		}
	}
}

func TestParseStrategyResponseString(t *testing.T) {
	s, label, err := parseStrategy("0110", 3) // length decides memory, not the flag
	if err != nil {
		t.Fatal(err)
	}
	if label != "custom" || s.Space().Memory() != 1 {
		t.Fatalf("label %q memory %d", label, s.Space().Memory())
	}
	p, ok := s.(*strategy.Pure)
	if !ok || !p.Equal(strategy.WSLS(strategy.NewSpace(1))) {
		t.Fatal("0110 should parse to memory-one WSLS")
	}
	// A memory-two string.
	s2, _, err := parseStrategy("0110011001100110", 1)
	if err != nil || s2.Space().Memory() != 2 {
		t.Fatalf("memory-2 parse: %v", err)
	}
}

func TestParseStrategyRejectsJunk(t *testing.T) {
	for _, bad := range []string{"", "01", "xyz", "0120", "BOGUSNAME"} {
		if _, _, err := parseStrategy(bad, 1); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	// TF2T needs memory >= 2.
	if _, _, err := parseStrategy("TF2T", 1); err == nil {
		t.Fatal("TF2T at memory 1 accepted")
	}
	if _, _, err := parseStrategy("TF2T", 2); err != nil {
		t.Fatal("TF2T at memory 2 rejected")
	}
}

// One good invocation end to end, and the two flag values that used to reach
// strategy.NewSpace's panic: both are one-line errors naming the flag.
func TestStratSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"strat", "-error", "0.05", "WSLS"}, &out); err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"strategy: WSLS (memory-1, 4 states)",
		"response: 0110",
		"exact long-run payoffs at 5.0% errors",
		"self-play:",
		"fixation probability of one mutant in 31 residents",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	for _, m := range []string{"0", "7"} {
		err := run([]string{"strat", "-memory", m, "TFT"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-memory "+m+" out of range [1,6]") {
			t.Errorf("-memory %s: error %v does not name the flag and its range", m, err)
		}
	}
}
