package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/strategy"
)

// Tests run with the package directory as working directory, where the
// benchmark's own files sit at ".", not "bench".
func TestMain(m *testing.M) {
	benchDir = "."
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, pct, beyond int }{
		{600, 98, 12}, // the service window's usual size
		{1000, 99, 10},
		{999, 98, 19},
		{100, 90, 10},
		{20, 50, 10},
		{19, 0, 0}, // not even the median has ten samples beyond it
	} {
		pct, beyond := tailPercentile(c.n)
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%d with %d beyond, want p%d with %d", c.n, pct, beyond, c.pct, c.beyond)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 90); got != 90 {
		t.Errorf("percentile(1..100, 90) = %v, want 90", got)
	}
	if got := median(v); got != 50.5 {
		t.Errorf("median(1..100) = %v, want 50.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "rep", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "rank1", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "rank2", Start: ms(20), End: ms(50), Parent: 0}, // overlaps rank1
		{Name: "inner", Start: ms(22), End: ms(28), Parent: 2},
		{Name: "late", Start: ms(90), End: ms(120), Parent: 0}, // clipped to the parent
	}
	want := []time.Duration{ms(100 - 40 - 10), ms(20), ms(30 - 6), ms(6), ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	evs := chromeEvents(spans, 3)
	if len(evs) != len(spans) || evs[0].Ph != "X" || evs[0].Pid != 3 || evs[1].Ts != 10000 || evs[1].Dur != 20000 {
		t.Errorf("chrome events malformed: %+v", evs[:2])
	}
}

func TestResultHash(t *testing.T) {
	cfg := sim.DefaultConfig(1, 8)
	cfg.Generations = 50
	cfg.Seed = 7
	a, err := sim.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := hashResult(a)
	if h := hashResult(b); h != base {
		t.Fatalf("same run hashed differently: %s vs %s", base, h)
	}
	b.FinalFitness[3] = math.Float64frombits(math.Float64bits(b.FinalFitness[3]) ^ 1)
	if hashResult(b) == base {
		t.Error("flipping one fitness bit left the hash unchanged")
	}
	b.FinalFitness[3] = a.FinalFitness[3]
	b.Counters.Adoptions++
	if hashResult(b) == base {
		t.Error("changing a counter left the hash unchanged")
	}
	b.Counters = a.Counters
	p := b.Final[0].(*strategy.Pure)
	p.SetMove(2, 1-p.MoveAt(2))
	if hashResult(b) == base {
		t.Error("changing one strategy move left the hash unchanged")
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "gens_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", higher, tight, tight, verdictOK},
		{"within bound", higher, tight, []float64{93, 94, 92, 93, 93}, verdictOK},
		{"throughput fell", higher, tight, []float64{80, 81, 79, 80, 80}, verdictRegressed},
		{"throughput rose", higher, tight, []float64{130, 131, 129, 130, 130}, verdictOK},
		{"latency rose", lower, tight, []float64{120, 121, 119, 120, 120}, verdictRegressed},
		{"latency fell", lower, tight, []float64{70, 71, 69, 70, 70}, verdictOK},
		{"noisy and interleaved", higher, []float64{100, 130, 70, 100, 115}, []float64{85, 120, 60, 95, 80}, verdictUnresolved},
		{"noisy but every run worse", higher, []float64{100, 130, 90, 100, 115}, []float64{50, 70, 40, 60, 55}, verdictRegressed},
		{"single values", lower, []float64{2.0}, []float64{2.6}, verdictRegressed},
	} {
		if got, _ := verdict(c.d, median(c.a), median(c.b), c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gps []float64, failed int) string {
		rf := resultFile{Runs: []*runResult{{
			Workload: wSeqFullNoisy, Attempted: 5, Failed: failed,
			Metrics: map[string]float64{"gens_per_s": median(gps), "setup_s": 1.5},
			Samples: map[string][]float64{"gens_per_s": gps},
		}}}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{100, 101, 99, 100, 100}, 0)
	for _, c := range []struct {
		name string
		path string
		code int
		want string
	}{
		{"equal", write("b.json", []float64{100, 100, 99, 101, 100}, 0), 0, verdictOK},
		{"slower", write("c.json", []float64{70, 71, 69, 70, 70}, 0), 1, verdictRegressed},
		{"failing", write("d.json", []float64{100, 100, 99, 101, 100}, 1), 1, "fail_ratio rose"},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}

func TestMetricNameValidation(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatalf("the benchmark's own tables: %v", err)
	}
	ok := metricDef{Name: "mpi.net_bcast_us", Unit: "us", Better: "lower"}
	for _, bad := range []metricDef{
		{Name: "has space", Unit: "s", Better: "lower"},
		{Name: "", Unit: "s", Better: "lower"},
		{Name: ".leading", Unit: "s", Better: "lower"},
		{Name: "slash/name", Unit: "s", Better: "lower"},
		{Name: strings.Repeat("x", 65), Unit: "s", Better: "lower"},
		{Name: "unit", Unit: "micro seconds", Better: "lower"},
		{Name: "direction", Unit: "s", Better: "faster"},
		{Name: "bound", Unit: "s", Better: "lower", Bound: 0.3},
	} {
		if err := validateDefs([]metricDef{ok, bad}); err == nil {
			t.Errorf("validateDefs accepted %+v", bad)
		}
	}
	if err := validateDefs([]metricDef{ok}, []metricDef{ok}); err == nil {
		t.Error("validateDefs accepted a name used twice")
	}
}

// benchmarkJSON mirrors the contract's keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json is the driver's copy of the tables in metrics.go and
// workloads.go; the two must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: declared %q / %q, implemented %q / %q", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound == nil || *got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, implemented %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: declared %+v, implemented %+v", i, got, d)
		}
	}
}

// The -quick smoke: every workload, both passes, verification on (golden
// included). Every metric BENCHMARK.json names must be printed exactly once
// for each workload it is defined on, nowhere else, and the driver's result
// line must carry every name of the pass.
func TestQuickSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	declared := map[bool][]string{}
	for _, m := range b.EndToEnd {
		declared[false] = append(declared[false], m.Name)
	}
	for _, m := range b.PerLayer {
		declared[true] = append(declared[true], m.Name)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + "/untraced"
			flag := "0"
			if traced {
				name, flag = w.name+"/traced", "1"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				code, err := run([]string{"-workload", w.name, "-quick", "-trace", flag}, &out)
				if err != nil || code != 0 {
					t.Fatalf("exit %d, err %v\n%s", code, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				printed := map[string]int{}
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) >= 4 && f[0] == w.name && f[1] != "#" {
						printed[f[1]]++
						if f[2] == "missing" {
							t.Errorf("metric %s is defined on %s but was not measured", f[1], w.name)
						}
					}
				}
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result line: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(declared[traced]) {
					t.Errorf("result line has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared[traced]))
				}
				for _, d := range passDefs(traced) {
					want := 0
					if d.definedOn(w.name) {
						want = 1
					}
					if printed[d.Name] != want {
						t.Errorf("metric %s printed %d times for %s, want %d", d.Name, printed[d.Name], w.name, want)
					}
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("result line: metric %s missing or unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, v.Value)
					}
				}
			})
		}
	}
}
