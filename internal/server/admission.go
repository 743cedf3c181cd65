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
// The default (paper-fitted) calibration makes admission decisions
// deterministic; a daemon wanting host-accurate pricing can install a
// HostCalibration instead.
type CostModel struct {
	// Cal is the per-match cost table; zero value selects PaperCalibration.
	Cal perfmodel.Calibration
	// CalRounds is the match length Cal was measured/fitted at (0 selects
	// the paper's 200); per-match cost scales linearly with rounds.
	CalRounds int
}

// DefaultCostModel prices jobs with the deterministic paper calibration.
func DefaultCostModel() CostModel {
	return CostModel{Cal: perfmodel.PaperCalibration(), CalRounds: game.DefaultRounds}
}

func (m CostModel) normalised() CostModel {
	if m.Cal.ClockHz == 0 {
		m.Cal = perfmodel.PaperCalibration()
	}
	if m.CalRounds == 0 {
		m.CalRounds = game.DefaultRounds
	}
	return m
}

// EstimateSeconds models a job's sequential compute cost from its validated
// configuration:
//
//   - the match count is perfmodel.CacheAdjustedGames': the first
//     generation's S × (S-1) warm-up plus, per later generation, one changed
//     SSet's row and column (2 × (S-1) matches) at the combined churn rate
//     min(1, pc+mu) — all an incremental job plays — and, under full
//     recompute, every other scheduled match at PairCacheHitCostRatio, as
//     the engine's payoff table by strategy type serves it;
//   - a full-recompute job the table does not serve by type
//     (sim.ServedByType: noisy or mixed sampled play) plays all
//     G × S × (S-1) matches;
//   - a match costs Cal.GameSeconds[memory] × rounds / CalRounds; exact
//     mode replaces the sampled match with the Markov solve, whose sparse
//     iteration is priced like a 4^memory-round match.
//
// The estimate is an admission heuristic, not a promise — it ignores rank
// parallelism (a queued job may run on any engine) and mixing effects.
func (m CostModel) EstimateSeconds(cfg sim.Config) float64 {
	m = m.normalised()
	games := perfmodel.CacheAdjustedGames(cfg.Generations, cfg.NumSSets, cfg.PCRate+cfg.Mu, cfg.FullRecompute)
	if cfg.FullRecompute && !sim.ServedByType(&cfg) {
		s := float64(cfg.NumSSets)
		games = float64(cfg.Generations) * s * (s - 1)
	}
	rounds := float64(cfg.Rules.Rounds)
	if cfg.ExactPayoffs {
		rounds = float64(int64(1) << uint(2*cfg.Memory)) // 4^n state sweep
	}
	perMatch := m.Cal.GameSeconds[cfg.Memory] * rounds / float64(m.CalRounds)
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
