package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// End-to-end smoke test of the fresh-run path: a small scaled Fig. 2
// validation must cluster, label the dominant strategy, and render the
// population map and PPM image.
func TestRunFreshSmoke(t *testing.T) {
	ppm := filepath.Join(t.TempDir(), "fig2.ppm")
	var out strings.Builder
	err := run([]string{
		"viz", "-run", "-ssets", "16", "-gens", "200", "-seed", "7", "-k", "4",
		"-rows", "8", "-ppm", ppm, "-cell", "2",
	}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"fresh run: 16 SSets, 200 generations",
		"dominant cluster:",
		"cluster sizes:",
		"population map",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// One readout: the line printed is the outcome of this configuration's
	// RunWSLSValidation, not a second clustering with its own seed.
	res, err := core.RunWSLSValidation(core.WSLSValidationConfig(16, 200, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := dominantLine(res) + "\n"; !strings.Contains(got, want) {
		t.Errorf("dominant-cluster line is not the WSLSOutcome's %q:\n%s", want, got)
	}
	img, err := os.ReadFile(ppm)
	if err != nil {
		t.Fatalf("PPM not written: %v", err)
	}
	if !strings.HasPrefix(string(img), "P6") {
		t.Errorf("PPM missing P6 magic, got %q", img[:min(8, len(img))])
	}
}

// A checkpoint goes through the same readout as a fresh run: the final
// population of a run, written the way egdsim -checkpoint writes it, renders
// with the dominant-cluster line of that run's own outcome.
func TestRunCheckpointSmoke(t *testing.T) {
	res, err := core.RunWSLSValidation(core.WSLSValidationConfig(16, 200, 7), 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pop.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := &checkpoint.Snapshot{Generation: 200, Seed: 7, Memory: 1, Strategies: res.Result.Final}
	if err := checkpoint.Write(f, snap); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"viz", "-in", path, "-seed", "7", "-k", "4", "-rows", "4"}, &out); err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"loaded checkpoint: generation 200, 16 SSets, memory-1\n",
		dominantLine(res) + "\n",
		"population map",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunNeedsInputSelection(t *testing.T) {
	var out strings.Builder
	err := run([]string{"viz"}, &out)
	if err == nil || !strings.Contains(err.Error(), "need -in FILE or -run") {
		t.Fatalf("no input selection accepted: %v", err)
	}
}

func TestRunMissingCheckpoint(t *testing.T) {
	var out strings.Builder
	err := run([]string{"viz", "-in", filepath.Join(t.TempDir(), "missing.ckpt")}, &out)
	if err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}
