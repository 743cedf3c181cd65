package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/strategy"
)

// runStrat inspects a strategy: its response table, Axelrod-style
// behavioural traits (nice / retaliatory / forgiving), and its exact
// long-run payoffs against the classic field at a chosen error rate.
//
// The strategy may be a classic name or a 0/1 response string whose length
// determines the memory depth (4^n states), e.g. the memory-one WSLS is
// "0110" in this repository's binary state order CC,CD,DC,DD.
//
//	egdsim strat WSLS
//	egdsim strat -memory 2 GRIM
//	egdsim strat -error 0.05 0110
//	egdsim strat 0101100101101001   # an arbitrary memory-two strategy
func runStrat(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdsim strat", flag.ContinueOnError)
	var (
		memory  = fs.Int("memory", 1, "memory depth for named classics, in [1,6]")
		errRate = fs.Float64("error", 0.01, "execution error rate for the payoff table")
		popN    = fs.Int("n", 32, "population size for the fixation analysis")
		beta    = fs.Float64("beta", 1, "Fermi selection intensity for the fixation analysis")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *memory < 1 || *memory > strategy.MaxMemory {
		return fmt.Errorf("-memory %d out of range [1,%d]", *memory, strategy.MaxMemory)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one strategy (a classic name or a 0/1 response string)")
	}
	arg := fs.Arg(0)

	subject, name, err := parseStrategy(arg, *memory)
	if err != nil {
		return err
	}
	sp := subject.Space()
	fmt.Fprintf(out, "strategy: %s (memory-%d, %d states)\n", name, sp.Memory(), sp.NumStates())

	if p, ok := subject.(*strategy.Pure); ok {
		fmt.Fprintf(out, "response: %s\n", p)
		tr := strategy.AnalyzeTraits(p)
		fmt.Fprintf(out, "traits:   %s\n", tr)
		fmt.Fprintf(out, "opens:    %s; defects in %.0f%% of states\n", tr.FirstMove, 100*tr.DefectionRate)
	} else {
		fmt.Fprintf(out, "response: %s (mixed)\n", subject)
	}

	if sp.Memory() == 1 {
		fmt.Fprintln(out, "\nresponse table:")
		for s := uint32(0); s < uint32(sp.NumStates()); s++ {
			fmt.Fprintf(out, "  after %s: cooperate with probability %.2f\n",
				sp.DescribeState(s), subject.CooperateProb(s))
		}
	}

	// Exact payoffs against the classic field.
	fmt.Fprintf(out, "\nexact long-run payoffs at %.1f%% errors (mine / theirs):\n", 100**errRate)
	payoff := game.StandardPayoff()
	solver := analysis.NewSolver(sp)
	opponents := []string{"ALLC", "ALLD", "TFT", "WSLS", "GRIM", "GTFT"}
	for _, on := range opponents {
		opp, err := strategy.Named(on, sp)
		if err != nil {
			continue
		}
		mine, theirs, err := solver.Payoff(payoff, subject, opp, *errRate)
		if err != nil {
			return err
		}
		verdict := "even"
		switch {
		case mine > theirs+1e-9:
			verdict = "wins"
		case mine < theirs-1e-9:
			verdict = "loses"
		}
		fmt.Fprintf(out, "  vs %-5s %6.3f / %-6.3f  (%s)\n", on, mine, theirs, verdict)
	}
	selfPi, _, err := solver.Payoff(payoff, subject, subject, *errRate)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  self-play: %.3f  (3.000 = sustained cooperation)\n", selfPi)

	// Invasion analysis: would a lone copy of this strategy take over a
	// resident population, under the Fermi pairwise-comparison process?
	fmt.Fprintf(out, "\nfixation probability of one mutant in %d residents (Fermi, beta %.1f; neutral = %.4f):\n",
		*popN-1, *beta, analysis.NeutralFixation(*popN))
	fcfg := analysis.FixationConfig{N: *popN, Beta: *beta, ErrorRate: *errRate}
	for _, on := range opponents {
		resident, err := strategy.Named(on, sp)
		if err != nil {
			continue
		}
		inv, err := analysis.AnalyzeInvasion(fcfg, subject, resident)
		if err != nil {
			return err
		}
		tag := ""
		if inv.Favoured {
			tag = "  <- favoured by selection"
		}
		fmt.Fprintf(out, "  into %-5s %.4f%s\n", on, inv.Fixation, tag)
	}
	return nil
}

func parseStrategy(arg string, memory int) (strategy.Strategy, string, error) {
	upper := strings.ToUpper(arg)
	for _, n := range strategy.ClassicNames() {
		if upper == n {
			sp := strategy.NewSpace(memory)
			s, err := strategy.Named(n, sp)
			if err != nil {
				return nil, "", err
			}
			return s, n, nil
		}
	}
	p, err := strategy.ParsePure(arg)
	if err != nil {
		return nil, "", fmt.Errorf("%q is neither a classic name (%s) nor a valid response string: %v",
			arg, strings.Join(strategy.ClassicNames(), ", "), err)
	}
	return p, "custom", nil
}
