// Errorsweep: the paper's §III-E motivation, quantified two ways. First,
// the exact Markov-chain payoffs of classic strategy pairings as the
// execution-error rate grows — showing analytically why one mistake ruins
// Tit-For-Tat reciprocity but not Win-Stay Lose-Shift. Second, an
// evolutionary sweep: full simulations across error rates, tabulating how
// much cooperation the evolved populations sustain.
//
//	go run ./examples/errorsweep
package main

import (
	"fmt"
	"log"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/sweep"
)

func main() {
	sp := strategy.NewSpace(1)
	payoff := game.StandardPayoff()
	rates := []float64{0, 0.001, 0.01, 0.05, 0.10}
	solver := analysis.NewSolver(sp)

	fmt.Println("exact self-play payoff per round vs execution-error rate")
	fmt.Println("(Markov stationary analysis; R=3 is sustained cooperation):")
	fmt.Printf("  %-8s", "error")
	names := []string{"TFT", "WSLS", "GTFT", "GRIM", "ALLC"}
	for _, n := range names {
		fmt.Printf(" %8s", n)
	}
	fmt.Println()
	for _, e := range rates {
		fmt.Printf("  %-8.3f", e)
		for _, n := range names {
			s, err := strategy.Named(n, sp)
			if err != nil {
				log.Fatal(err)
			}
			pi, _, err := solver.Payoff(payoff, s, s, e)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %8.3f", pi)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("TFT self-play collapses toward 2.0 (the pair drifts through all")
	fmt.Println("four states after one slip); WSLS recovers in two rounds and GTFT")
	fmt.Println("forgives, so both hold near 3.0 at small error rates.")
	fmt.Println()

	// How exploitable is each nice strategy once errors open the door?
	alld := strategy.AllD(sp)
	fmt.Println("exact payoff against ALLD at 1% errors (resistance to exploitation):")
	for _, n := range names {
		s, _ := strategy.Named(n, sp)
		mine, theirs, err := solver.Payoff(payoff, s, alld, 0.01)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5s earns %.3f, ALLD earns %.3f\n", n, mine, theirs)
	}
	fmt.Println()

	// Evolutionary consequence: sweep full simulations across error rates.
	base := sim.DefaultConfig(1, 24)
	base.Generations = 20000
	base.Kind = sim.MixedStrategies
	base.AllowWorseAdoption = true
	base.Beta = 10
	base.PCRate = 1.0
	grid, err := sweep.Cross(base,
		[]string{"error", "seed"},
		[][]string{{"0", "0.01", "0.05", "0.15"}, {"1", "2", "3"}},
		func(cfg *sim.Config, name, value string) error {
			switch name {
			case "error":
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					return err
				}
				cfg.Rules.ErrorRate = v
			case "seed":
				v, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					return err
				}
				cfg.Seed = v
			}
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evolutionary sweep: %d cells (24 SSets, 20k generations each)...\n", grid.Size())
	outcomes := grid.Run(0)

	fmt.Println("mean evolved cooperation probability by error rate (3 seeds):")
	byRate := map[string][]float64{}
	for _, o := range outcomes {
		if o.Err != nil {
			log.Fatal(o.Err)
		}
		r := o.Point.Labels["error"]
		byRate[r] = append(byRate[r], o.Cooperation)
	}
	for _, r := range []string{"0", "0.01", "0.05", "0.15"} {
		vals := byRate[r]
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		fmt.Printf("  error %-5s -> cooperation %.3f\n", r, mean)
	}
	fmt.Println()
	fmt.Println("heavy error rates erode evolved cooperation: reciprocity cannot")
	fmt.Println("distinguish exploitation from accident, the effect that makes")
	fmt.Println("memory (and strategies like WSLS) matter — the paper's motivation.")
}
