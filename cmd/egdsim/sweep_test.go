package main

import (
	"encoding/csv"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// A sweep over the error rate prints one record per cell under a header
// with no repeated name (the failure column is run_error, not a second
// "error"), and every record has the header's width.
func TestSweepSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{"sweep", "-ssets", "8", "-gens", "40", "-rounds", "10", "-error", "0,0.05", "-seeds", "2", "-workers", "2"}, &out)
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
		err := run([]string{"sweep", "-seeds", n}, &out)
		if err == nil || !strings.Contains(err.Error(), "-seeds "+n) {
			t.Errorf("-seeds %s: error %v does not name the flag", n, err)
		}
	}
}

// A failed cell's message keeps its commas: encoding/csv quotes it, where
// the hand-rolled writer it replaced rewrote them to semicolons.
func TestTableQuotesRunError(t *testing.T) {
	got := table([]cell{{beta: "1", errRate: "0", mu: "0.05", cfg: sim.Config{Seed: 1}, runErr: errors.New("boom, with comma")}}).CSV()
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

// A swept flag's list parses to its values, each keeping its spelling for
// the CSV; an unparseable value or an empty list is an error naming the flag.
func TestLevels(t *testing.T) {
	got, err := levels("beta", "1, 0.50,1e1")
	if err != nil || len(got) != 3 || got[1] != (level{"0.50", 0.5}) || got[2].v != 10 {
		t.Fatalf("levels = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "1,x", ",", ""} {
		if _, err := levels("mu", bad); err == nil || !strings.HasPrefix(err.Error(), "-mu: ") {
			t.Errorf("-mu %q: error %v does not name the flag", bad, err)
		}
	}
}

// Every cell's outcome is its own run's, whatever the worker count, and a
// cell whose run fails records the error without stopping the others.
func TestPlayCellsIndependently(t *testing.T) {
	good := sim.DefaultConfig(1, 8)
	good.Generations, good.Rules.Rounds, good.Seed = 30, 10, 9
	bad := good
	bad.Memory = 0
	var runs [3][]cell
	for i, workers := range []int{0, 1, 4} { // 0 is NumCPU
		runs[i] = []cell{{cfg: good}, {cfg: bad}, {cfg: good}}
		play(runs[i], workers)
	}
	for i, cells := range runs {
		if cells[0].runErr != nil || cells[2].runErr != nil || cells[1].runErr == nil {
			t.Fatalf("run %d: errors %v, %v, %v; want only the memory-0 cell's", i, cells[0].runErr, cells[1].runErr, cells[2].runErr)
		}
		if f := cells[0].meanFitness; f <= 0 || f > 4 || cells[0].distinct < 1 || cells[0].distinct > 8 {
			t.Fatalf("run %d: mean fitness %v, %d distinct", i, f, cells[0].distinct)
		}
	}
	for _, c := range []cell{runs[0][2], runs[1][0], runs[1][2], runs[2][0], runs[2][2]} {
		if c.meanFitness != runs[0][0].meanFitness || c.wslsFraction != runs[0][0].wslsFraction || c.distinct != runs[0][0].distinct {
			t.Fatal("the same cell gave different outcomes")
		}
	}
}

// sweepCSV runs a sweep and returns its records with the wall-clock seconds
// column cut, the one column that differs between identical runs.
func sweepCSV(t *testing.T, args ...string) [][]string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"sweep"}, args...), &out); err != nil {
		t.Fatalf("sweep %q: %v", args, err)
	}
	recs, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, out.String())
	}
	for i, r := range recs {
		recs[i] = append(r[:8:8], r[9:]...)
	}
	return recs
}

// Every combination of the three swept axes and the seeds is one cell, in
// flag order — beta slowest, then mu, then error, the seed fastest — and
// each cell's run carries the values it is labelled with, each in its own
// field, over an otherwise unchanged base configuration.
func TestGridAppliesEachValue(t *testing.T) {
	base := sim.DefaultConfig(2, 8)
	base.Beta, base.Mu, base.Rules.ErrorRate, base.Seed = 7, 0.3, 0.4, 5
	lv := func(vs ...float64) []level {
		var ls []level
		for _, v := range vs {
			ls = append(ls, level{strconv.FormatFloat(v, 'g', -1, 64), v})
		}
		return ls
	}
	cells := grid(base, 2, lv(1, 3), lv(0.01, 0.05), lv(0, 0.02))
	if len(cells) != 16 {
		t.Fatalf("%d cells, want 2 x 2 x 2 x 2", len(cells))
	}
	i := 0
	for _, beta := range []float64{1, 3} {
		for _, mu := range []float64{0.01, 0.05} {
			for _, e := range []float64{0, 0.02} {
				for _, seed := range []uint64{5, 6} {
					c := cells[i]
					want := base
					want.Beta, want.Mu, want.Rules.ErrorRate, want.Seed = beta, mu, e, seed
					if !reflect.DeepEqual(c.cfg, want) {
						t.Errorf("cell %d runs %+v, want %+v", i, c.cfg, want)
					}
					if c.beta != lv(beta)[0].label || c.mu != lv(mu)[0].label || c.errRate != lv(e)[0].label {
						t.Errorf("cell %d labelled beta %s mu %s error %s, want %v %v %v", i, c.beta, c.mu, c.errRate, beta, mu, e)
					}
					i++
				}
			}
		}
	}
}

// The CSV has one record per grid cell, in grid order, labelled with the
// values as typed.
func TestSweepCoversTheGrid(t *testing.T) {
	recs := sweepCSV(t, "-ssets", "4", "-gens", "20", "-rounds", "5", "-seed", "5",
		"-beta", "1,3", "-mu", "0.01,0.050", "-error", "0,0.02", "-seeds", "2")
	if len(recs) != 1+16 {
		t.Fatalf("%d records, want a header and 2 x 2 x 2 x 2 cells", len(recs))
	}
	i := 1
	for _, beta := range []string{"1", "3"} {
		for _, mu := range []string{"0.01", "0.050"} {
			for _, e := range []string{"0", "0.02"} {
				for _, seed := range []string{"5", "6"} {
					if r := recs[i]; r[0] != beta || r[2] != mu || r[1] != e || r[3] != seed || r[8] != "" {
						t.Errorf("record %d = %q, want beta %s mu %s error %s seed %s and no run_error", i, r, beta, mu, e, seed)
					}
					i++
				}
			}
		}
	}
}

// A sweep's output is a function of its flags alone: the worker count
// changes only the order cells run in, never a record.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	args := []string{"-ssets", "8", "-gens", "60", "-rounds", "10", "-mixed", "-beta", "1,3", "-error", "0,0.05", "-seeds", "2"}
	want := sweepCSV(t, append(args, "-workers", "1")...)
	for _, workers := range []string{"3", "0"} {
		got := sweepCSV(t, append(args, "-workers", workers)...)
		if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Errorf("-workers %s:\n%q\nwant (-workers 1):\n%q", workers, got, want)
		}
	}
}
