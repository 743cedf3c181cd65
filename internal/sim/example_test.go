package sim_test

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// The minimal flow every front end follows: describe the run, materialise
// and validate it, run it, inspect the result. Identical seeds give
// identical trajectories, so the output is stable.
func ExampleRun() {
	spec := sim.Spec{Memory: 1, SSets: 8, Generations: 200, Rounds: 50, Seed: 7}
	cfg, err := spec.Config()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := sim.Run(cfg, spec.Ranks)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("SSets:", len(res.Final))
	fmt.Println("ranks:", res.Ranks)
	fmt.Println("events consistent:", res.Counters.Adoptions <= res.Counters.PCEvents)
	// Output:
	// SSets: 8
	// ranks: 1
	// events consistent: true
}

// A world of several ranks reproduces the one-rank trajectory exactly.
func ExampleRun_parallel() {
	spec := sim.Spec{Memory: 1, SSets: 8, Generations: 100, Rounds: 20, Seed: 3, Ranks: 3}
	cfg, err := spec.Config()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	one, err := sim.Run(cfg, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	three, err := sim.Run(cfg, spec.Ranks)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	same := len(one.Final) == len(three.Final)
	for i := range one.Final {
		same = same && fmt.Sprint(one.Final[i]) == fmt.Sprint(three.Final[i])
	}
	fmt.Println("ranks:", three.Ranks)
	fmt.Println("identical final populations:", same)
	fmt.Println("identical fitness:", slices.Equal(one.FinalFitness, three.FinalFitness))
	fmt.Println("counters equal:", one.Counters == three.Counters)
	// Output:
	// ranks: 3
	// identical final populations: true
	// identical fitness: true
	// counters equal: true
}
