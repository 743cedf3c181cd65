package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/strategy"
)

func TestTableIValues(t *testing.T) {
	tbl := TableI()
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "3,3" || tbl.Rows[0][2] != "0,4" ||
		tbl.Rows[1][1] != "4,0" || tbl.Rows[1][2] != "1,1" {
		t.Fatalf("payoff cells wrong: %v", tbl.Rows)
	}
}

func TestTableIIIComplete(t *testing.T) {
	tbl := TableIII()
	if len(tbl.Rows) != 16 {
		t.Fatalf("%d strategies enumerated", len(tbl.Rows))
	}
	named := map[string]bool{}
	for _, row := range tbl.Rows {
		if row[5] != "" {
			named[row[5]] = true
		}
	}
	for _, want := range []string{"ALLC", "ALLD", "TFT", "WSLS", "GRIM"} {
		if !named[want] {
			t.Errorf("classic %s not identified in Table III", want)
		}
	}
}

func TestTableIV(t *testing.T) {
	tbl := TableIV()
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "16" {
		t.Errorf("memory-1 strategies = %s", tbl.Rows[0][2])
	}
	if tbl.Rows[5][1] != "4096" || tbl.Rows[5][2] != "2^4096" {
		t.Errorf("memory-6 row = %v", tbl.Rows[5])
	}
}

func TestTableVIII(t *testing.T) {
	tbl := TableVIII([]int{1024, 16384}, []int{256, 1024})
	if tbl.Rows[0][1] != "4096" {
		t.Errorf("1024 SSets / 256 procs = %s agents, want 4096", tbl.Rows[0][1])
	}
	if tbl.Rows[1][1] != "1048576" {
		t.Errorf("16384 SSets / 256 procs = %s, want 1048576", tbl.Rows[1][1])
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tbl := TableI()
	text := tbl.Format()
	if !strings.Contains(text, "Table I") || !strings.Contains(text, "3,3") {
		t.Fatalf("Format output: %s", text)
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "Agent\\Opp,C,D\n") {
		t.Fatalf("CSV output: %s", csv)
	}
}

func TestModelTablesGenerate(t *testing.T) {
	cal := perfmodel.PaperCalibration()
	vi, err := TableVI(cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(vi.Rows) != 6 || len(vi.Columns) != 6 {
		t.Fatalf("Table VI shape %dx%d", len(vi.Rows), len(vi.Columns))
	}
	vii, err := TableVII(cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(vii.Rows) != 6 {
		t.Fatalf("Table VII rows %d", len(vii.Rows))
	}
	for _, gen := range []func() (*Table, error){
		func() (*Table, error) { return Fig3(cal) },
		func() (*Table, error) { return Fig4(cal, 2048) },
		func() (*Table, error) { return Fig5(cal) },
		func() (*Table, error) { return Fig6(cal) },
		func() (*Table, error) { return Fig7(cal, true) },
	} {
		tbl, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty", tbl.Title)
		}
	}
}

func TestMappingStudy(t *testing.T) {
	tbl, err := MappingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 || len(tbl.Columns) != 5 {
		t.Fatalf("shape %dx%d", len(tbl.Rows), len(tbl.Columns))
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if cell == "" || cell == "0.000" {
				t.Fatalf("empty cost cell in %v", row)
			}
		}
	}
}

func TestFig7FullSystemDegrades(t *testing.T) {
	tbl, err := Fig7(perfmodel.PaperCalibration(), true)
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	prev := tbl.Rows[len(tbl.Rows)-2]
	if last[0] != "294912" {
		t.Fatalf("last row %v", last)
	}
	if last[3] >= prev[3] {
		t.Errorf("72-rack efficiency %s should drop below 64-rack %s", last[3], prev[3])
	}
}

func smallWSLSConfig() sim.Config {
	cfg := WSLSValidationConfig(24, 400, 7)
	cfg.Rules.Rounds = 30
	cfg.SampleStride = 50
	return cfg
}

func TestRunWSLSValidationSmoke(t *testing.T) {
	out, err := RunWSLSValidation(smallWSLSConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.WSLSFraction < 0 || out.WSLSFraction > 1 {
		t.Fatalf("WSLS fraction %v", out.WSLSFraction)
	}
	if out.DominantFraction <= 0 {
		t.Fatalf("dominant fraction %v", out.DominantFraction)
	}
	if out.Result == nil || len(out.Result.Final) != 24 {
		t.Fatal("result missing")
	}
}

func TestSortedAbundanceNames(t *testing.T) {
	sp := strategy.NewSpace(1)
	res := &sim.Result{Final: []strategy.Strategy{
		strategy.WSLS(sp), strategy.WSLS(sp), strategy.AllD(sp),
		strategy.GTFT(sp, 0.3),
	}}
	names := SortedAbundanceNames(res, 10)
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	if !strings.HasPrefix(names[0], "0110 x2") {
		t.Fatalf("top entry = %q, want WSLS x2", names[0])
	}
	if !strings.Contains(strings.Join(names, " "), "~") {
		t.Fatal("mixed strategy not marked with ~")
	}
	short := SortedAbundanceNames(res, 1)
	if len(short) != 1 {
		t.Fatal("top cap ignored")
	}
}

func TestHostStrongScaling(t *testing.T) {
	cfg := sim.DefaultConfig(1, 8)
	cfg.Generations = 10
	cfg.Rules.Rounds = 10
	cfg.Seed = 1
	rows, err := HostStrongScaling(cfg, []int{2, 3, 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows (oversized rank count should be skipped)", len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Fatalf("non-positive time for %d ranks", r.Ranks)
		}
	}
	if _, err := HostStrongScaling(cfg, []int{1}); err == nil {
		t.Fatal("all-invalid rank counts accepted")
	}
	bad := cfg
	bad.Memory = 0
	if _, err := HostStrongScaling(bad, []int{2}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDefaultHostRankCounts(t *testing.T) {
	counts := DefaultHostRankCounts()
	if len(counts) == 0 || counts[0] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestAsciiMap(t *testing.T) {
	sp := strategy.NewSpace(1)
	out := AsciiMap([]strategy.Strategy{
		strategy.AllC(sp),
		strategy.AllD(sp),
		strategy.MixedFromProbs(sp, []float64{0.5, 0.5, 0.5, 0.5}),
	}, 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0] != "...." || lines[1] != "####" || lines[2] != "5555" {
		t.Fatalf("map = %q", lines)
	}
	capped := AsciiMap([]strategy.Strategy{strategy.AllC(sp), strategy.AllD(sp)}, 1)
	if strings.Count(capped, "\n") != 1 {
		t.Fatal("maxRows ignored")
	}
}

func TestWritePPM(t *testing.T) {
	sp := strategy.NewSpace(1)
	var buf bytes.Buffer
	err := WritePPM(&buf, []strategy.Strategy{strategy.AllC(sp), strategy.AllD(sp)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("P6\n8 4\n255\n")) {
		t.Fatalf("PPM header: %q", data[:16])
	}
	wantLen := len("P6\n8 4\n255\n") + 3*8*4
	if len(data) != wantLen {
		t.Fatalf("PPM size %d, want %d", len(data), wantLen)
	}
	// First pixel: cooperate -> yellow-ish (high red+green, zero blue).
	px := data[len("P6\n8 4\n255\n"):]
	if px[0] != 255 || px[1] != 220 || px[2] != 0 {
		t.Fatalf("cooperate pixel = %v", px[:3])
	}
	if err := WritePPM(&buf, nil, 1); err == nil {
		t.Fatal("empty strategies accepted")
	}
	if err := WritePPM(&buf, []strategy.Strategy{strategy.AllC(sp)}, 0); err == nil {
		t.Fatal("cell 0 accepted")
	}
	mixed := []strategy.Strategy{strategy.AllC(sp), strategy.AllC(strategy.NewSpace(2))}
	if err := WritePPM(&buf, mixed, 1); err == nil {
		t.Fatal("mismatched spaces accepted")
	}
}
