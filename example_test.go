package egd_test

import (
	"fmt"

	egd "repro"
)

// The minimal flow: configure, run, inspect. Identical seeds give
// identical trajectories, so the output is stable.
func ExampleRun() {
	res, err := egd.Run(egd.Config{
		Memory:      1,
		SSets:       8,
		Generations: 200,
		Rounds:      50,
		Seed:        7,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("SSets:", len(res.Strategies))
	fmt.Println("ranks:", res.Ranks)
	fmt.Println("events consistent:", res.Adoptions <= res.PCEvents)
	// Output:
	// SSets: 8
	// ranks: 1
	// events consistent: true
}

// The parallel engine reproduces the sequential trajectory exactly.
func ExampleRun_parallel() {
	cfg := egd.Config{Memory: 1, SSets: 8, Generations: 100, Rounds: 20, Seed: 3}
	seq, err := egd.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg.Ranks = 3
	par, err := egd.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	same := true
	for i := range seq.Strategies {
		if seq.Strategies[i] != par.Strategies[i] {
			same = false
		}
	}
	fmt.Println("identical final populations:", same)
	fmt.Println("games equal:", seq.GamesPlayed == par.GamesPlayed)
	// Output:
	// identical final populations: true
	// games equal: true
}
