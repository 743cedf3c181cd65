package perfmodel

// This file models the engine's payoff table by strategy type
// (docs/KERNEL.md), which is always on where a run can be memoized: most
// scheduled matches of a memoizable full-recompute run are served from it at
// a tiny fraction of a match's cost, so admission pricing that ignored it
// would turn away jobs the daemon can easily run.

// PairCacheHitCostRatio is the modelled cost of serving one memoized pair
// payoff relative to recomputing the match: a type id, its epoch check and
// one cell of the rank's π[type][type] against rounds of table-driven play.
// A hit measures ≈5 ns and the cheapest replay the engine has, a pure
// memory-three match of 200 rounds, ≈1 µs — a ratio of 0.005, and smaller
// against every noisy, mixed or exact match. 0.01 therefore overprices a
// hit at least twofold, which is the side admission may err on.
const PairCacheHitCostRatio = 0.01

// CacheAdjustedGames returns the effective full-cost match count of a
// memoizable run, in units of one uncached match.
//
// The miss model: the warm-up generation computes every ordered pair once
// (S×(S-1) misses), and thereafter each strategy change — at most one per
// generation, occurring at the combined churn rate min(1, pc+mu) — can
// introduce one behaviourally new strategy whose 2×(S-1) ordered pairings
// are cold. Every other scheduled match repeats a known behaviour pair and
// hits, costing PairCacheHitCostRatio of a match. This is an upper bound on
// misses: churn that re-creates a previously seen strategy (common near
// fixation, where mutants die out and the resident returns) hits instead.
//
// In incremental mode the dirty-row machinery already skips repeated
// matches, so scheduled == modelled misses and the cache offers no modelled
// discount (its real benefit there — mutants recreating known strategies —
// is left as safety margin).
func CacheAdjustedGames(gens, ssets int, churn float64, fullRecompute bool) float64 {
	if gens <= 0 || ssets < 2 {
		return 0
	}
	if churn < 0 {
		churn = 0
	}
	if churn > 1 {
		churn = 1
	}
	s := float64(ssets)
	g := float64(gens)
	warm := s * (s - 1)
	churnMisses := 0.0
	if g > 1 {
		churnMisses = (g - 1) * churn * 2 * (s - 1)
	}
	misses := warm + churnMisses
	scheduled := misses
	if fullRecompute {
		scheduled = g * s * (s - 1)
	}
	if misses > scheduled {
		misses = scheduled
	}
	return misses + (scheduled-misses)*PairCacheHitCostRatio
}
