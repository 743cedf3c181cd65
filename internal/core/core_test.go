package core

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/game"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// build regenerates one catalogue entry under the paper calibration, every
// option on.
func build(t *testing.T, id string) *Table {
	t.Helper()
	for _, a := range Artefacts() {
		if a.ID == id {
			tbl, err := a.Build(Options{Cal: perfmodel.PaperCalibration(), FullSystem: true, Fig4Procs: 2048})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return tbl
		}
	}
	t.Fatalf("no artefact %q", id)
	return nil
}

// The catalogue is egdsim scale -all's order, and every entry that does not time
// this host builds a non-empty, rectangular table whose CSV encoding/csv
// reads back cell for cell. Only Table I's cells (pairs) need quoting: no
// other cell or column name holds a comma, quote or line break, so every
// other table's CSV is exactly its cells joined by commas.
func TestModelTablesGenerate(t *testing.T) {
	var ids []string
	for _, a := range Artefacts() {
		ids = append(ids, a.ID)
		if a.ID == "measure" {
			continue
		}
		tbl := build(t, a.ID)
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty", a.ID)
		}
		recs, err := csv.NewReader(strings.NewReader(tbl.CSV())).ReadAll()
		if err != nil {
			t.Fatalf("%s: CSV does not parse: %v", a.ID, err)
		}
		want := append([][]string{tbl.Columns}, tbl.Rows...)
		if !reflect.DeepEqual(recs, want) {
			t.Errorf("%s: CSV reads back as %q, want %q", a.ID, recs, want)
		}
		plain := ""
		for _, row := range want {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s: row %q has %d cells for %d columns", a.ID, row, len(row), len(tbl.Columns))
			}
			plain += strings.Join(row, ",") + "\n"
		}
		if quoted := tbl.CSV() != plain; quoted != (a.ID == "table1") {
			t.Errorf("%s: CSV needs quoting = %v:\n%s", a.ID, quoted, tbl.CSV())
		}
	}
	if got := strings.Join(ids, " "); got != "table1 table3 table4 table6 table7 table8 fig3 fig4 fig5 fig6 fig7 knee measure" {
		t.Errorf("catalogue order: %s", got)
	}
	if vi := build(t, "table6"); len(vi.Rows) != 6 || len(vi.Columns) != 6 {
		t.Fatalf("Table VI shape %dx%d", len(vi.Rows), len(vi.Columns))
	}
	if vii := build(t, "table7"); len(vii.Rows) != 6 {
		t.Fatalf("Table VII rows %d", len(vii.Rows))
	}
}

func TestTableIValues(t *testing.T) {
	tbl := build(t, "table1")
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if tbl.Rows[0][1] != "3,3" || tbl.Rows[0][2] != "0,4" ||
		tbl.Rows[1][1] != "4,0" || tbl.Rows[1][2] != "1,1" {
		t.Fatalf("payoff cells wrong: %v", tbl.Rows)
	}
}

func TestTableIIIComplete(t *testing.T) {
	tbl := build(t, "table3")
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
	tbl := build(t, "table4")
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
	tbl := build(t, "table8")
	if tbl.Rows[0][0] != "1024" || tbl.Rows[0][1] != "4096" {
		t.Errorf("1024 SSets / 256 procs = %s agents, want 4096", tbl.Rows[0][1])
	}
	if tbl.Rows[4][0] != "16384" || tbl.Rows[4][1] != "1048576" {
		t.Errorf("16384 SSets / 256 procs = %s, want 1048576", tbl.Rows[4][1])
	}
}

// Format aligns; CSV quotes a cell that holds a comma (Table I's pairs, which
// joined bare would read C,3,3,0,4 under a three-column header), a quote or a
// line break, and nothing else.
func TestTableFormatAndCSV(t *testing.T) {
	tbl := build(t, "table1")
	text := tbl.Format()
	if !strings.Contains(text, "Table I") || !strings.Contains(text, "3,3") {
		t.Fatalf("Format output: %s", text)
	}
	if got, want := tbl.CSV(), "Agent\\Opp,C,D\nC,\"3,3\",\"0,4\"\nD,\"4,0\",\"1,1\"\n"; got != want {
		t.Fatalf("CSV output: %q, want %q", got, want)
	}
	odd := &Table{Columns: []string{"a", "b"}, Rows: [][]string{{"x, y", "say \"hi\"\nbye"}, {"", "plain"}}}
	if got, want := odd.CSV(), "a,b\n\"x, y\",\"say \"\"hi\"\"\nbye\"\n,plain\n"; got != want {
		t.Fatalf("CSV escaping: %q, want %q", got, want)
	}
}

func TestFig7FullSystemDegrades(t *testing.T) {
	tbl := build(t, "fig7")
	last := tbl.Rows[len(tbl.Rows)-1]
	prev := tbl.Rows[len(tbl.Rows)-2]
	if last[0] != "294912" {
		t.Fatalf("last row %v", last)
	}
	if last[3] >= prev[3] {
		t.Errorf("72-rack efficiency %s should drop below 64-rack %s", last[3], prev[3])
	}
}

// bench/workloads.go builds seq_exact_m3 from WSLSValidationConfig(48, 0,
// seed) and sets Memory, ExactPayoffs and Generations afterwards, so the
// function must keep returning this un-normalised Config: validating it here
// would fix SampleStride from zero generations and change that workload's
// sampled series and golden hash.
func TestWSLSValidationConfigPinned(t *testing.T) {
	want := sim.Config{
		Memory: 1, NumSSets: 48, Generations: 0, Seed: 7,
		Rules:              game.Rules{Rounds: 200, Payoff: game.Payoff{R: 3, S: 0, T: 4, P: 1}, ErrorRate: 0.01},
		Kind:               sim.MixedStrategies,
		PCRate:             1.0,
		Mu:                 0.05,
		Beta:               50,
		AllowWorseAdoption: true,
	}
	if got := WSLSValidationConfig(48, 0, 7); !reflect.DeepEqual(got, want) {
		t.Errorf("WSLSValidationConfig(48, 0, 7) =\n%+v\nwant\n%+v", got, want)
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
	// The outcome keeps the clustering it read out: Order is a permutation
	// of the SSets that bands clusters largest first, and the dominant
	// fraction and centroid are that k-means run's.
	km := out.Clusters
	seen := map[int]bool{}
	for i, idx := range out.Order {
		seen[idx] = true
		if i > 0 && km.Sizes[km.Assign[idx]] > km.Sizes[km.Assign[out.Order[i-1]]] {
			t.Fatalf("Order %v does not band clusters by size %v", out.Order, km.Sizes)
		}
	}
	if len(seen) != 24 {
		t.Fatalf("Order %v is not a permutation of 24 SSets", out.Order)
	}
	if _, frac := km.DominantCluster(); frac != out.DominantFraction || out.Dominant == nil ||
		out.DominantIsWSLS != out.Dominant.Equal(strategy.WSLS(strategy.NewSpace(1))) {
		t.Fatalf("dominant readout %v/%v/%v disagrees with its clusters", out.DominantFraction, out.Dominant, out.DominantIsWSLS)
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
	rows, err := hostStrongScaling(cfg, []int{2, 3, 100000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows (oversized rank count should be skipped)", len(rows))
	}
	for _, r := range rows {
		if r.seconds <= 0 {
			t.Fatalf("non-positive time for %d ranks", r.ranks)
		}
	}
	if _, err := hostStrongScaling(cfg, []int{100000}); err == nil {
		t.Fatal("all-invalid rank counts accepted")
	}
	bad := cfg
	bad.Memory = 0
	if _, err := hostStrongScaling(bad, []int{2}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// The measured table has one column per quantity: every rank plays, so a
// worker count would repeat the rank count.
func TestMeasuredScalingColumns(t *testing.T) {
	tbl := build(t, "measure")
	if got := strings.Join(tbl.Columns, ","); got != "Ranks,Seconds,Speedup,Efficiency" {
		t.Fatalf("columns %s", got)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) || row[0] != strconv.Itoa(1<<i) {
			t.Errorf("row %d = %q", i, row)
		}
	}
}

func TestDefaultHostRankCounts(t *testing.T) {
	counts := defaultHostRankCounts()
	if len(counts) == 0 || counts[0] != 1 {
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
