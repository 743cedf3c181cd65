package server

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// CostModel prices a job before it runs, reusing the perfmodel calibration
// machinery: a calibration gives the cost of one full match at each memory
// depth, and the model scales it by the job's match count and match length.
// The daemon prices with the zero value, the paper-fitted calibration, which
// makes admission decisions deterministic.
type CostModel struct {
	// Cal is the per-match cost table at game.DefaultRounds rounds a match;
	// the zero value selects PaperCalibration.
	Cal perfmodel.Calibration
}

// EstimateSeconds models a job's sequential compute cost from its validated
// configuration:
//
//   - the match count is perfmodel.CacheAdjustedGames': the first
//     generation's S × (S-1) warm-up plus, per later generation, one changed
//     SSet's row and column (2 × (S-1) matches) at the combined churn rate
//     min(1, pc+mu) — all an incremental job plays, and all a
//     full-recompute job plays when the engine's payoff table by strategy
//     type serves every other scheduled match;
//   - a full-recompute job the table does not serve by type
//     (sim.ServedByType: noisy or mixed sampled play) plays all
//     G × S × (S-1) matches;
//   - a match costs Cal.GameSeconds[memory] × rounds / game.DefaultRounds;
//     exact mode replaces the sampled match with the Markov solve, whose
//     sparse iteration is priced like a 4^memory-round match.
//
// The estimate is an admission heuristic, not a promise — it ignores rank
// parallelism (a queued job may run on any engine) and mixing effects.
func (m CostModel) EstimateSeconds(cfg sim.Config) float64 {
	cal := m.Cal
	if cal.ClockHz == 0 {
		cal = perfmodel.PaperCalibration()
	}
	games := perfmodel.CacheAdjustedGames(cfg.Generations, cfg.NumSSets, cfg.PCRate+cfg.Mu)
	if cfg.FullRecompute && !sim.ServedByType(&cfg) {
		s := float64(cfg.NumSSets)
		games = float64(cfg.Generations) * s * (s - 1)
	}
	rounds := float64(cfg.Rules.Rounds)
	if cfg.ExactPayoffs {
		rounds = float64(int64(1) << uint(2*cfg.Memory)) // 4^n state sweep
	}
	perMatch := cal.GameSeconds[cfg.Memory] * rounds / game.DefaultRounds
	return games * perMatch
}

// admissionError is a structured rejection: the HTTP layer maps Status to
// the response code and serialises the whole struct as the body, so the
// tenant sees the modelled cost that produced the decision.
type admissionError struct {
	Status            int     `json:"-"`
	Reason            string  `json:"reason"`
	Detail            string  `json:"detail"`
	ModelledSeconds   float64 `json:"modelled_seconds"`
	BudgetSeconds     float64 `json:"budget_seconds,omitempty"`
	RetryAfterSeconds int     `json:"retry_after_seconds,omitempty"`
}

func (e *admissionError) Error() string {
	return fmt.Sprintf("server: admission rejected (%s): %s", e.Reason, e.Detail)
}
