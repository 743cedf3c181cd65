package main

import (
	"encoding/csv"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// A sweep over the error rate prints one record per cell under a header
// with no repeated name (the failure column is run_error, not a second
// "error"), and every record has the header's width.
func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-ssets", "8", "-gens", "40", "-rounds", "10", "-error", "0,0.05", "-seeds", "2", "-workers", "2"}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	recs, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, out.String())
	}
	if got, want := strings.Join(recs[0], ","), "beta,error,mu,seed,mean_fitness,cooperation,wsls_fraction,distinct,seconds,run_error"; got != want {
		t.Errorf("header %q, want %q", got, want)
	}
	seen := map[string]bool{}
	for _, name := range recs[0] {
		if seen[name] {
			t.Errorf("column %q appears twice in %q", name, recs[0])
		}
		seen[name] = true
	}
	if len(recs) != 1+4 {
		t.Fatalf("%d records, want a header and 2 error rates x 2 seeds", len(recs))
	}
	for i, want := range [][2]string{{"0", "1"}, {"0", "2"}, {"0.05", "1"}, {"0.05", "2"}} {
		if r := recs[i+1]; r[1] != want[0] || r[3] != want[1] || r[9] != "" {
			t.Errorf("record %d = %q, want error %s seed %s and no run_error", i, r, want[0], want[1])
		}
	}
}

// A seed count below one is a flag error naming the flag, not a panic in
// make (-1) or the grid's "empty value list for seed" (0).
func TestRunRejectsBadSeeds(t *testing.T) {
	for _, n := range []string{"-1", "0"} {
		var out strings.Builder
		err := run([]string{"-seeds", n}, &out)
		if err == nil || !strings.Contains(err.Error(), "-seeds "+n) {
			t.Errorf("-seeds %s: error %v does not name the flag", n, err)
		}
	}
}

// A failed cell's message keeps its commas: encoding/csv quotes it, where
// the hand-rolled writer it replaced rewrote them to semicolons.
func TestTableQuotesRunError(t *testing.T) {
	got := table([]sweep.Outcome{{
		Point: sweep.Point{Labels: map[string]string{"beta": "1", "error": "0", "mu": "0.05", "seed": "1"}},
		Err:   errors.New("boom, with comma"),
	}}).CSV()
	recs, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil || len(recs) != 2 || len(recs[1]) != len(recs[0]) || recs[1][9] != "boom, with comma" {
		t.Fatalf("failed cell does not survive CSV (%v):\n%s", err, got)
	}
}

func TestSplit(t *testing.T) {
	cases := map[string][]string{
		"1,2,3":    {"1", "2", "3"},
		" 1 , 2 ":  {"1", "2"},
		"1":        {"1"},
		"1,,2":     {"1", "2"},
		",":        {},
		"0.1,0.05": {"0.1", "0.05"},
	}
	for in, want := range cases {
		got := split(in)
		if len(got) != len(want) {
			t.Errorf("split(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("split(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}

func TestApplyParam(t *testing.T) {
	cfg := sim.DefaultConfig(1, 8)
	if err := applyParam(&cfg, "beta", "2.5"); err != nil || cfg.Beta != 2.5 {
		t.Fatalf("beta: %v %v", cfg.Beta, err)
	}
	if err := applyParam(&cfg, "mu", "0.2"); err != nil || cfg.Mu != 0.2 {
		t.Fatalf("mu: %v %v", cfg.Mu, err)
	}
	if err := applyParam(&cfg, "error", "0.05"); err != nil || cfg.Rules.ErrorRate != 0.05 {
		t.Fatalf("error: %v %v", cfg.Rules.ErrorRate, err)
	}
	if err := applyParam(&cfg, "seed", "99"); err != nil || cfg.Seed != 99 {
		t.Fatalf("seed: %v %v", cfg.Seed, err)
	}
	if err := applyParam(&cfg, "bogus", "1"); err == nil {
		t.Fatal("unknown param accepted")
	}
	for _, bad := range [][2]string{{"beta", "x"}, {"mu", "x"}, {"error", "x"}, {"seed", "-1"}} {
		if err := applyParam(&cfg, bad[0], bad[1]); err == nil {
			t.Fatalf("bad %s value accepted", bad[0])
		}
	}
}
