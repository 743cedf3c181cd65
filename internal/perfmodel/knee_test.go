package perfmodel

import "testing"

func TestGamesKneeBasics(t *testing.T) {
	cal := PaperCalibration()
	knee1, err := GamesKnee(BlueGeneL(), cal, 1, 0.01, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if knee1 <= 0 {
		t.Fatalf("knee %v <= 0", knee1)
	}
	// Deeper memory makes each match costlier, so fewer matches are needed
	// to hide the same communication: the knee must shrink.
	knee6, err := GamesKnee(BlueGeneL(), cal, 6, 0.01, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if knee6 >= knee1 {
		t.Fatalf("memory-6 knee %v not below memory-1 knee %v", knee6, knee1)
	}
}

func TestGamesKneeMonotoneInTarget(t *testing.T) {
	cal := PaperCalibration()
	prev := 0.0
	for _, target := range []float64{0.6, 0.8, 0.95, 0.99} {
		k, err := GamesKnee(BlueGeneP(), cal, 1, 0.01, target)
		if err != nil {
			t.Fatal(err)
		}
		if k <= prev && target > 0.6 {
			t.Fatalf("knee not increasing in target: %v after %v", k, prev)
		}
		prev = k
	}
}

func TestGamesKneeClosedFormSemantics(t *testing.T) {
	// Verify the defining property: at the knee workload, the modelled
	// doubling efficiency equals the target (within float noise).
	cal := PaperCalibration()
	m := BlueGeneL()
	const memory, pcRate, target = 1, 0.01, 0.9
	g, err := GamesKnee(m, cal, memory, pcRate, target)
	if err != nil {
		t.Fatal(err)
	}
	c := cal.Scaled(m).GameSeconds[memory]
	comm := commPerGeneration(m, 4096, memory, pcRate)
	eff := (g*c + comm) / (g*c + 2*comm)
	if diff := eff - target; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("efficiency at knee = %v, want %v", eff, target)
	}
}

func TestGamesKneeValidation(t *testing.T) {
	cal := PaperCalibration()
	if _, err := GamesKnee(BlueGeneL(), Calibration{}, 1, 0.01, 0.9); err == nil {
		t.Fatal("invalid calibration accepted")
	}
	if _, err := GamesKnee(BlueGeneL(), cal, 0, 0.01, 0.9); err == nil {
		t.Fatal("memory 0 accepted")
	}
	if _, err := GamesKnee(BlueGeneL(), cal, 1, 0.01, 0.4); err == nil {
		t.Fatal("target below 0.5 accepted")
	}
	if _, err := GamesKnee(BlueGeneL(), cal, 1, 0.01, 1); err == nil {
		t.Fatal("target 1 accepted")
	}
}
