package sweep

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/sim"
)

func baseCfg() sim.Config {
	cfg := sim.DefaultConfig(1, 8)
	cfg.Generations = 30
	cfg.Rules.Rounds = 10
	cfg.Seed = 1
	return cfg
}

func applyParam(cfg *sim.Config, name, value string) error {
	switch name {
	case "beta":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return err
		}
		cfg.Beta = v
		return nil
	case "mu":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return err
		}
		cfg.Mu = v
		return nil
	case "seed":
		v, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return err
		}
		cfg.Seed = v
		return nil
	}
	return errors.New("unknown parameter " + name)
}

func TestCrossProducesAllCombinations(t *testing.T) {
	g, err := Cross(baseCfg(),
		[]string{"beta", "mu"},
		[][]string{{"0.5", "1", "2"}, {"0.01", "0.05"}},
		applyParam)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 6 {
		t.Fatalf("grid size %d, want 6", g.Size())
	}
	seen := map[string]bool{}
	for _, p := range g.points {
		seen[p.Labels["beta"]+"/"+p.Labels["mu"]] = true
	}
	if len(seen) != 6 {
		t.Fatalf("only %d distinct label pairs", len(seen))
	}
	// Applied values must reach the configs.
	found := false
	for _, p := range g.points {
		if p.Labels["beta"] == "2" && p.Config.Beta == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("beta=2 not applied to config")
	}
}

func TestCrossValidation(t *testing.T) {
	if _, err := Cross(baseCfg(), []string{"a"}, nil, applyParam); err == nil {
		t.Fatal("mismatched lists accepted")
	}
	if _, err := Cross(baseCfg(), []string{"a"}, [][]string{{}}, applyParam); err == nil {
		t.Fatal("empty values accepted")
	}
	if _, err := Cross(baseCfg(), []string{"bogus"}, [][]string{{"1"}}, applyParam); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := Cross(baseCfg(), []string{"beta"}, [][]string{{"x"}}, applyParam); err == nil {
		t.Fatal("unparseable value accepted")
	}
}

func TestRunProducesOutcomes(t *testing.T) {
	g, err := Cross(baseCfg(),
		[]string{"seed"},
		[][]string{{"1", "2", "3", "4"}},
		applyParam)
	if err != nil {
		t.Fatal(err)
	}
	outs := g.Run(2)
	if len(outs) != 4 {
		t.Fatalf("%d outcomes", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %d failed: %v", i, o.Err)
		}
		if o.MeanFitness <= 0 || o.MeanFitness > 4 {
			t.Fatalf("cell %d mean fitness %v", i, o.MeanFitness)
		}
		if o.Distinct < 1 || o.Distinct > 8 {
			t.Fatalf("cell %d distinct %d", i, o.Distinct)
		}
		if o.Seconds < 0 {
			t.Fatalf("cell %d negative time", i)
		}
	}
	// Outcomes stay aligned with grid order.
	for i, o := range outs {
		if o.Point.Labels["seed"] != g.points[i].Labels["seed"] {
			t.Fatal("outcome order does not match grid order")
		}
	}
}

func TestRunRecordsFailures(t *testing.T) {
	bad := baseCfg()
	bad.Memory = 0 // invalid
	g := &Grid{points: []Point{{Labels: map[string]string{"case": "bad"}, Config: bad}}}
	outs := g.Run(1)
	if outs[0].Err == nil {
		t.Fatal("invalid config did not record an error")
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	g := &Grid{points: []Point{{Labels: map[string]string{"case": "one"}, Config: baseCfg()}}}
	outs := g.Run(0)
	if len(outs) != 1 || outs[0].Err != nil {
		t.Fatalf("default-worker run failed: %+v", outs)
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	g, _ := Cross(baseCfg(), []string{"seed"}, [][]string{{"9"}}, applyParam)
	a := g.Run(1)[0]
	b := g.Run(4)[0]
	if a.MeanFitness != b.MeanFitness || a.WSLSFraction != b.WSLSFraction || a.Distinct != b.Distinct {
		t.Fatal("same cell, different outcomes across worker counts")
	}
}
