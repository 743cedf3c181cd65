package game

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/strategy"
)

// Entrant is one tournament participant.
type Entrant struct {
	Name     string
	Strategy strategy.Strategy
}

// Standing is an entrant's final tournament record.
type Standing struct {
	Name        string
	TotalScore  float64 // payoff summed over all matches and repeats
	MeanPayoff  float64 // per-round mean across all matches
	Cooperation float64 // fraction of the entrant's own moves that were C
	Matches     int
}

// Tournament runs an Axelrod-style round robin (paper §III-B): every
// entrant plays every other entrant (and itself, as in Axelrod's original)
// `repeats` times under the given rules. Randomness derives from seed so
// results are reproducible.
func Tournament(rules Rules, entrants []Entrant, repeats int, seed uint64) ([]Standing, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	if len(entrants) < 2 {
		return nil, fmt.Errorf("game: tournament needs >= 2 entrants, got %d", len(entrants))
	}
	if repeats <= 0 {
		return nil, fmt.Errorf("game: repeats must be positive, got %d", repeats)
	}
	sp := entrants[0].Strategy.Space()
	for _, e := range entrants {
		if e.Strategy.Space() != sp {
			return nil, fmt.Errorf("game: entrant %q has mismatched space", e.Name)
		}
	}
	master := rng.New(seed)
	score := make([]float64, len(entrants))
	coop := make([]int, len(entrants))
	ownMoves := make([]int, len(entrants))
	matches := make([]int, len(entrants))
	for i := range entrants {
		for j := i; j < len(entrants); j++ {
			for r := 0; r < repeats; r++ {
				src := master.Derive(uint64(i), uint64(j), uint64(r))
				res := Play(rules, entrants[i].Strategy, entrants[j].Strategy, src)
				score[i] += res.Fitness0
				coop[i] += res.Coop0
				ownMoves[i] += res.Rounds
				matches[i]++
				if j != i {
					score[j] += res.Fitness1
					coop[j] += res.Coop1
					ownMoves[j] += res.Rounds
					matches[j]++
				}
			}
		}
	}
	out := make([]Standing, len(entrants))
	for i, e := range entrants {
		out[i] = Standing{
			Name:        e.Name,
			TotalScore:  score[i],
			MeanPayoff:  score[i] / float64(ownMoves[i]),
			Cooperation: float64(coop[i]) / float64(ownMoves[i]),
			Matches:     matches[i],
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].TotalScore > out[b].TotalScore })
	return out, nil
}
