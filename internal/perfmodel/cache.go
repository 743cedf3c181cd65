package perfmodel

// This file models the engine's payoff table by strategy type
// (docs/KERNEL.md), which is always on where a run can be memoized: most
// scheduled matches of a memoizable full-recompute run are served from it,
// so admission pricing that ignored it would turn away jobs the daemon can
// easily run.

// CacheAdjustedGames returns the matches a memoizable run plays, in units of
// one uncached match.
//
// The miss model: the warm-up generation computes every ordered pair once
// (S×(S-1) misses), and thereafter each strategy change — at most one per
// generation, occurring at the combined churn rate min(1, pc+mu) — can
// introduce one behaviourally new strategy whose 2×(S-1) ordered pairings
// are cold. Every other scheduled match repeats a known behaviour pair; a
// full-recompute run serves it from the table, whose refresh visits only the
// changed keys, so it costs nothing. This is an upper bound on misses: churn
// that re-creates a previously seen strategy (common near fixation, where
// mutants die out and the resident returns) hits instead.
//
// In incremental mode the dirty-row machinery already skips repeated
// matches, so the same count is what such a run schedules (the table's real
// benefit there — mutants recreating known strategies — is left as safety
// margin).
func CacheAdjustedGames(gens, ssets int, churn float64) float64 {
	if gens <= 0 || ssets < 2 {
		return 0
	}
	churn = min(max(churn, 0), 1)
	s := float64(ssets)
	churnMisses := 0.0
	if gens > 1 {
		churnMisses = float64(gens-1) * churn * 2 * (s - 1)
	}
	return s*(s-1) + churnMisses
}
