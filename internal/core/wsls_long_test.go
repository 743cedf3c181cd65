package core

import (
	"os"
	"testing"
)

// TestWSLSEmergenceLong reproduces the paper's Fig. 2 headline at reduced
// scale: from a random mixed population under 1% execution errors, the
// majority of SSets adopt Win-Stay Lose-Shift. The full validation
// (2×10^6 generations, >90% WSLS; see EXPERIMENTS.md) takes minutes, so
// this test is opt-in:
//
//	EGD_LONG=1 go test -run TestWSLSEmergenceLong -timeout 30m ./internal/core
func TestWSLSEmergenceLong(t *testing.T) {
	if os.Getenv("EGD_LONG") == "" {
		t.Skip("set EGD_LONG=1 to run the long Fig. 2 validation")
	}
	cfg := WSLSValidationConfig(32, 2000000, 11)
	out, err := RunWSLSValidation(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WSLS fraction %.3f, dominant cluster %.3f (WSLS: %v), %v elapsed",
		out.WSLSFraction, out.DominantFraction, out.DominantIsWSLS, out.Result.Elapsed)
	if out.WSLSFraction < 0.5 {
		t.Errorf("WSLS fraction %.3f, want > 0.5 (paper: 0.85)", out.WSLSFraction)
	}
	if !out.DominantIsWSLS {
		t.Error("dominant k-means cluster does not round to WSLS")
	}
}
