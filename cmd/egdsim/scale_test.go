package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"scale"}, args...), &out); err != nil {
		t.Fatalf("run %v failed: %v\noutput:\n%s", args, err, out.String())
	}
	return out.String()
}

// Smoke test of the analytic tables: they derive from the paper's
// closed-form counts, so they need no measurement and print instantly.
func TestRunTablesSmoke(t *testing.T) {
	if got := runOK(t, "-table", "1"); !strings.Contains(got, "Table") {
		t.Errorf("table output missing title:\n%s", got)
	}
}

// The modelled Blue Gene projection exercises the perfmodel path.
func TestRunProjectionSmoke(t *testing.T) {
	got := runOK(t, "-table", "6")
	for _, want := range []string{"Table", "512"} {
		if !strings.Contains(got, want) {
			t.Errorf("projection output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCSVSmoke(t *testing.T) {
	got := runOK(t, "-csv", "-table", "3")
	if !strings.HasPrefix(got, "# ") {
		t.Errorf("CSV output missing commented title:\n%s", got)
	}
	if !strings.Contains(got, ",") {
		t.Errorf("CSV output has no comma-separated rows:\n%s", got)
	}
}

func TestRunNothingSelected(t *testing.T) {
	var out strings.Builder
	err := run([]string{"scale"}, &out)
	if err == nil || !strings.Contains(err.Error(), "nothing selected") {
		t.Fatalf("empty selection accepted: %v", err)
	}
}

// flagsFor is the command line that selects one catalogue entry.
func flagsFor(id string) []string {
	for _, kind := range []string{"table", "fig"} {
		if n, ok := strings.CutPrefix(id, kind); ok {
			return []string{"-" + kind, n}
		}
	}
	return []string{"-" + id}
}

// testdata/ holds the output of the last egdscale that named each generator
// by hand (PR 22), text and -csv, for every catalogue entry but the measured
// one and for the two flags that change a figure. The catalogue loop must
// reproduce it byte for byte. The one intended difference: Table I's cells
// are pairs, which that command's CSV did not quote.
func TestOutputMatchesParentGoldens(t *testing.T) {
	quoted := map[string]string{"C,3,3,0,4": `C,"3,3","0,4"`, "D,4,0,1,1": `D,"4,0","1,1"`}
	cases := map[string][]string{
		"fig7_fullsystem": {"-fig", "7", "-fullsystem"},
		"fig4_procs512":   {"-fig", "4", "-fig4procs", "512"},
	}
	for _, a := range core.Artefacts() {
		if a.ID != "measure" {
			cases[a.ID] = flagsFor(a.ID)
		}
	}
	for name, args := range cases {
		for ext, extra := range map[string][]string{".txt": nil, ".csv": {"-csv"}} {
			golden, err := os.ReadFile(filepath.Join("testdata", name+ext))
			if err != nil {
				t.Fatal(err)
			}
			want := string(golden)
			if name+ext == "table1.csv" {
				for old, new := range quoted {
					want = strings.Replace(want, old, new, 1)
				}
			}
			if got := runOK(t, append(extra, args...)...); got != want {
				t.Errorf("%s%s differs from the parent's output\n--- got\n%s--- want\n%s", name, ext, got, want)
			}
		}
	}
}

// -table and -fig select independently, an unknown number is an error that
// lists the ones the catalogue has, and -all prints every entry in catalogue
// order, the measured table last.
func TestSelection(t *testing.T) {
	both := runOK(t, "-table", "6", "-fig", "3")
	if vi, f3 := strings.Index(both, "Table VI:"), strings.Index(both, "Figure 3:"); vi < 0 || f3 < vi {
		t.Errorf("-table 6 -fig 3 did not print Table VI then Figure 3:\n%s", both)
	}
	for _, bad := range []struct{ flag, n, valid string }{
		{"-table", "5", "1,3,4,6,7,8"}, {"-fig", "2", "3,4,5,6,7"},
	} {
		var out strings.Builder
		err := run([]string{"scale", bad.flag, bad.n}, &out)
		if err == nil || !strings.Contains(err.Error(), bad.valid) {
			t.Errorf("%s %s: error %v does not list %s", bad.flag, bad.n, err, bad.valid)
		}
	}

	var titles []string
	for _, line := range strings.Split(runOK(t, "-all"), "\n") {
		for _, p := range []string{"Table ", "Figure ", "Efficiency knee", "Mapping study", "Measured "} {
			if strings.HasPrefix(line, p) {
				title, _, _ := strings.Cut(line, ":")
				titles = append(titles, title)
			}
		}
	}
	want := "Table I|Table III|Table IV|Table VI|Table VII|Table VIII|Figure 3|Figure 4|Figure 5|Figure 6|Figure 7|" +
		"Efficiency knee|Mapping study (paper future work)|Measured strong scaling on this host (" // "N cores)"
	if got := strings.Join(titles, "|"); !strings.HasPrefix(got, want) || len(titles) != len(core.Artefacts()) {
		t.Errorf("-all printed %d titles:\n%s\nwant\n%s", len(titles), got, want)
	}
}
