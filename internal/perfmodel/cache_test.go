package perfmodel

import "testing"

func TestCacheAdjustedGamesFullRecompute(t *testing.T) {
	// 100 generations, 10 SSets, no churn: the warm-up plays every ordered
	// pair once; every later scheduled match repeats a known pair and costs
	// nothing, so the run is priced far below its full schedule.
	got := CacheAdjustedGames(100, 10, 0)
	if want := 90.0; got != want {
		t.Fatalf("CacheAdjustedGames = %v, want the warm-up's %v", got, want)
	}
	if scheduled := 100 * 90.0; got >= scheduled/10 {
		t.Fatalf("cache-adjusted cost %v not at least 10x below the scheduled %v", got, scheduled)
	}
}

func TestCacheAdjustedGamesIncrementalNoDiscount(t *testing.T) {
	// Incremental mode already skips repeats: adjusted == scheduled, the
	// warm-up plus one changed SSet's row and column per later generation at
	// the churn rate.
	churn := 0.15
	if got, want := CacheAdjustedGames(100, 10, churn), 90.0+99*churn*2*9; got != want {
		t.Fatalf("incremental adjusted = %v, want scheduled %v", got, want)
	}
}

func TestCacheAdjustedGamesMonotoneInChurn(t *testing.T) {
	prev := -1.0
	for _, churn := range []float64{0, 0.1, 0.5, 1, 2} {
		v := CacheAdjustedGames(50, 8, churn)
		if v < prev {
			t.Fatalf("adjusted games decreased with churn %v: %v < %v", churn, v, prev)
		}
		prev = v
	}
	// Churn is clamped to [0, 1]: values beyond do not move the estimate.
	if CacheAdjustedGames(50, 8, 1) != CacheAdjustedGames(50, 8, 5) ||
		CacheAdjustedGames(50, 8, 0) != CacheAdjustedGames(50, 8, -1) {
		t.Fatal("churn clamp missing")
	}
}

func TestCacheAdjustedGamesBounds(t *testing.T) {
	if got := CacheAdjustedGames(0, 10, 0.1); got != 0 {
		t.Fatalf("zero generations priced %v", got)
	}
	if got := CacheAdjustedGames(10, 1, 0.1); got != 0 {
		t.Fatalf("single SSet priced %v", got)
	}
	// Misses never exceed the full-recompute schedule G×S×(S-1), even at
	// churn 1 and 2 SSets, where they reach it.
	for _, ssets := range []int{2, 3, 64} {
		s := float64(ssets)
		if got, sched := CacheAdjustedGames(5, ssets, 1), 5*s*(s-1); got > sched {
			t.Errorf("%d SSets: adjusted %v exceeds scheduled %v", ssets, got, sched)
		}
	}
}
