package sim

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/game"
)

// runtimeOnly names the scalar Config fields no Spec field moves, each for
// a stated reason. A Config field that is in neither this list nor reachable
// from a Spec (or FaultTolerance) field fails TestEveryConfigFieldIsReachable:
// add it to Spec — and so to every front end at once — or justify it here.
var runtimeOnly = map[string]string{
	"StartGeneration": "set by ResumeFrom from a snapshot",
	"PayoffCache":     "ignored; kept for bench/, which sets and reads it (ROADMAP item 1's shim ledger)",
	"Rules.Payoff.R":  "the paper's payoff f[R,S,T,P] = [3,0,4,1]; no front end varies it",
	"Rules.Payoff.S":  "as Rules.Payoff.R",
	"Rules.Payoff.T":  "as Rules.Payoff.R",
	"Rules.Payoff.P":  "as Rules.Payoff.R",
}

// scalarLeaves flattens the exported bool/number fields of v (nested structs
// included, e.g. Rules.Rounds) to name -> value. Interfaces, funcs, slices,
// pointers and arrays — Observer, Control, CheckpointSink, InitialStrategies,
// FaultPlan — are wiring or data, not parameters.
func scalarLeaves(prefix string, v reflect.Value, out map[string]any) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Struct:
			scalarLeaves(prefix+f.Name+".", fv, out)
		case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			out[prefix+f.Name] = fv.Interface()
		}
	}
}

// moved reports which scalar Config leaves differ between a and b.
func moved(a, b Config) []string {
	la, lb := map[string]any{}, map[string]any{}
	scalarLeaves("", reflect.ValueOf(a), la)
	scalarLeaves("", reflect.ValueOf(b), lb)
	var names []string
	for name, v := range la {
		if v != lb[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// perturb sets one field of a struct to a valid value that is neither its
// zero nor the base value.
func perturb(t *testing.T, field reflect.Value) {
	t.Helper()
	switch field.Kind() {
	case reflect.Bool:
		field.SetBool(true)
	case reflect.Int:
		field.SetInt(field.Int() + 2)
	case reflect.Int64: // time.Duration
		field.SetInt(int64(3 * time.Second))
	case reflect.Uint64:
		field.SetUint(field.Uint() + 2)
	case reflect.Float64:
		field.SetFloat(0.25)
	case reflect.Pointer:
		v := 0.25
		field.Set(reflect.ValueOf(&v))
	case reflect.String:
		field.SetString("rank=1,after=5")
	default:
		t.Fatalf("perturb: unhandled kind %v", field.Kind())
	}
}

// Every scalar parameter of the engine is reachable from the one run
// description: perturbing the Spec (and FaultTolerance) fields one at a time
// moves, between them, every scalar Config field outside runtimeOnly — and
// every Spec field but Ranks (which picks the engine, not a Config field)
// moves something.
func TestEveryConfigFieldIsReachable(t *testing.T) {
	base := Spec{Memory: 1, SSets: 8, Generations: 10, Rounds: 20}
	baseCfg, err := base.Config()
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		name := reflect.TypeOf(base).Field(i).Name
		spec := base
		perturb(t, reflect.ValueOf(&spec).Elem().Field(i))
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("Spec.%s perturbed: %v", name, err)
		}
		names := moved(baseCfg, cfg)
		if len(names) == 0 && name != "Ranks" {
			t.Errorf("Spec.%s moves no Config field", name)
		}
		for _, n := range names {
			reached[n] = true
		}
	}
	for i := 0; i < reflect.TypeOf(FaultTolerance{}).NumField(); i++ {
		name := reflect.TypeOf(FaultTolerance{}).Field(i).Name
		var ft FaultTolerance
		perturb(t, reflect.ValueOf(&ft).Elem().Field(i))
		cfg := baseCfg
		if err := ft.Apply(&cfg); err != nil {
			t.Fatalf("FaultTolerance.%s perturbed: %v", name, err)
		}
		names := moved(baseCfg, cfg)
		// InjectFault moves the plan, not a scalar; MaxRestarts is the
		// supervisor's budget, which no engine reads.
		if len(names) == 0 && cfg.FaultPlan == nil && name != "MaxRestarts" {
			t.Errorf("FaultTolerance.%s moves no Config field", name)
		}
		for _, n := range names {
			reached[n] = true
		}
	}
	all := map[string]any{}
	scalarLeaves("", reflect.ValueOf(baseCfg), all)
	for name := range all {
		if _, ok := runtimeOnly[name]; ok == reached[name] {
			t.Errorf("Config.%s: reached by a Spec field = %v, listed run-time-only = %v; want exactly one", name, reached[name], ok)
		}
	}
}

// parseFlags binds a default spec to a flag set and parses args into it.
func parseFlags(t *testing.T, args ...string) Spec {
	t.Helper()
	spec := DefaultSpec()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Flags -> Spec -> JSON -> Spec -> Config lands on the Config written by
// hand, so a command line, a worker hand-off and a submitted job describe
// the same run. An explicit zero rate survives every hop; an omitted one is
// the paper's default at the end.
func TestFlagsJSONConfigRoundTrip(t *testing.T) {
	fig2 := DefaultConfig(1, 12)
	fig2.Generations = 300
	fig2.Kind = MixedStrategies
	fig2.Rules.ErrorRate = 0.01
	fig2.PCRate = 1
	fig2.Beta = 50
	fig2.AllowWorseAdoption = true
	fig2.Seed = 5

	noMutation := DefaultConfig(2, 10)
	noMutation.Generations = 40
	noMutation.Rules.Rounds = 30
	noMutation.PCRate, noMutation.Mu = 0, 0
	noMutation.Seed = 9
	noMutation.FullRecompute = true
	noMutation.ExactPayoffs = true

	search := DefaultConfig(1, 64)
	search.UseSearchEngine = true
	search.Seed = 1

	cases := []struct {
		name string
		args []string
		json string // substring the marshalled spec must (or, with a leading '!', must not) contain
		want Config
	}{
		{"fig2", []string{"-ssets", "12", "-gens", "300", "-seed", "5", "-mixed", "-error", "0.01", "-fermi", "-pcrate", "1", "-beta", "50"},
			`"fermi":true`, fig2},
		{"explicit zero rates", []string{"-memory", "2", "-ssets", "10", "-gens", "40", "-rounds", "30", "-pcrate", "0", "-mu", "0", "-seed", "9",
			"-full", "-exact"}, `"pc_rate":0,"mu":0`, noMutation},
		{"omitted rates", []string{"-search"}, `!"mu"`, search},
	}
	for _, tc := range cases {
		spec := parseFlags(t, tc.args...)
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if sub, absent := strings.CutPrefix(tc.json, "!"); strings.Contains(string(wire), sub) == absent {
			t.Errorf("%s: spec JSON %s: contains %s = %v", tc.name, wire, sub, !absent)
		}
		var back Spec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Config()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tc.want
		if err := want.Validate(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flags -> JSON -> Config = %+v\nwant %+v (moved: %v)", tc.name, got, want, moved(got, want))
		}
	}

	// The same distinction in a submitted body.
	for body, mu := range map[string]float64{`{"memory":1,"ssets":8,"generations":5,"mu":0}`: 0, `{"memory":1,"ssets":8,"generations":5}`: DefaultMu} {
		var spec Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if cfg, err := spec.Config(); err != nil || cfg.Mu != mu {
			t.Errorf("%s: Mu = %v (%v), want %v", body, cfg.Mu, err, mu)
		}
	}
}

// Ranks 0 and 1 are a world of one; the engine's own check bounds the
// worker count; a checkpoint cadence needs no sink yet; and Run at every
// accepted rank count plays the one-rank trajectory.
func TestSpecRanksAndCheckpointCadence(t *testing.T) {
	spec := Spec{Memory: 1, SSets: 2, Generations: 5, CheckpointEvery: 2}
	one, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSequential(one)
	if err != nil {
		t.Fatal(err)
	}
	for ranks, wantErr := range map[int]string{-1: "negative rank count", 0: "", 1: "", 3: "", 4: "workers exceed"} {
		spec.Ranks = ranks
		cfg, err := spec.Config()
		switch {
		case wantErr == "" && err != nil:
			t.Errorf("ranks %d: %v", ranks, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("ranks %d: error %v, want one containing %q", ranks, err, wantErr)
		case wantErr == "":
			res, err := Run(cfg, ranks)
			if err != nil {
				t.Fatalf("ranks %d: %v", ranks, err)
			}
			if want := max(ranks, 1); res.Ranks != want {
				t.Errorf("ranks %d ran on %d ranks, want %d", ranks, res.Ranks, want)
			}
			assertSameTrajectory(t, ref, res)
		}
	}
	if cfg, _ := (Spec{Memory: 1, SSets: 8, Generations: 5}).Config(); cfg.Rules != game.DefaultRules() {
		t.Errorf("zero Rounds / ErrorRate did not select the paper's rules: %+v", cfg.Rules)
	}
}
