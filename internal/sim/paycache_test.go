package sim

import (
	"strings"
	"testing"

	"repro/internal/game"
)

// assertBitIdentical is the cache-parity comparator: unlike
// assertSameTrajectory (which tolerates reduction-order float drift between
// engines) it demands exact equality everywhere, because cache-on and
// cache-off runs of the SAME engine share every accumulation order.
func assertBitIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Counters != b.Counters {
		t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	if len(a.Final) != len(b.Final) {
		t.Fatalf("final population sizes differ: %d vs %d", len(a.Final), len(b.Final))
	}
	for i := range a.Final {
		if !a.Final[i].Equal(b.Final[i]) {
			t.Fatalf("final strategy %d differs", i)
		}
	}
	for i := range a.FinalFitness {
		if a.FinalFitness[i] != b.FinalFitness[i] {
			t.Fatalf("final fitness %d differs: %v vs %v", i, a.FinalFitness[i], b.FinalFitness[i])
		}
	}
	for _, pair := range []struct {
		name string
		sa   interface {
			Len() int
			At(int) (int, float64)
		}
		sb interface {
			Len() int
			At(int) (int, float64)
		}
	}{{"mean fitness", a.MeanFitness, b.MeanFitness}, {"cooperation", a.Cooperation, b.Cooperation}} {
		if pair.sa.Len() != pair.sb.Len() {
			t.Fatalf("%s series lengths differ: %d vs %d", pair.name, pair.sa.Len(), pair.sb.Len())
		}
		for i := 0; i < pair.sa.Len(); i++ {
			ga, va := pair.sa.At(i)
			gb, vb := pair.sb.At(i)
			if ga != gb || va != vb {
				t.Fatalf("%s sample %d: (%d,%v) vs (%d,%v)", pair.name, i, ga, va, gb, vb)
			}
		}
	}
}

// TestPayoffCacheBitParity is the tentpole's acceptance test: for both
// engines and all three evaluation modes, enabling the cache changes
// nothing observable about the trajectory.
func TestPayoffCacheBitParity(t *testing.T) {
	modes := []struct {
		name  string
		apply func(*Config)
	}{
		{"incremental", func(*Config) {}},
		{"full", func(c *Config) { c.FullRecompute = true }},
		{"exact", func(c *Config) { c.ExactPayoffs = true }},
		{"search", func(c *Config) { c.UseSearchEngine = true }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			base := testConfig(1, 10, 60)
			base.Seed = 314
			mode.apply(&base)

			cached := base
			cached.PayoffCache = true

			seqOff, err := RunSequential(base)
			if err != nil {
				t.Fatal(err)
			}
			seqOn, err := RunSequential(cached)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, seqOff, seqOn)

			parOff, err := RunParallel(base, 3)
			if err != nil {
				t.Fatal(err)
			}
			parOn, err := RunParallel(cached, 3)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, parOff, parOn)
			// And across engines, the usual sequential/parallel parity.
			assertSameTrajectory(t, seqOn, parOn)
		})
	}
}

// TestPayoffCacheParityMixedNoise: with non-degenerate mixed strategies and
// execution errors every match depends on the (gen,i,j) random stream, so
// the cache must stand aside entirely — parity still holds and the counters
// prove nothing was memoized.
func TestPayoffCacheParityMixedNoise(t *testing.T) {
	base := testConfig(1, 8, 40)
	base.Seed = 99
	base.Kind = MixedStrategies
	base.Rules.ErrorRate = 0.05
	base.Metrics = true

	cached := base
	cached.PayoffCache = true

	off, err := RunSequential(base)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunSequential(cached)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, off, on)
	cs := on.Metrics.Phases[0].Cache
	if cs == nil {
		t.Fatal("cache stats missing from cached run's snapshot")
	}
	if cs.Hits != 0 || cs.Misses != 0 || cs.Entries != 0 {
		t.Fatalf("uncacheable run touched the cache: %+v", cs)
	}
	if off.Metrics.Phases[0].Cache != nil {
		t.Fatal("cache-off run carries cache stats")
	}
}

// TestPayoffCacheHitsSurviveMutations: near fixation (tiny mutation space,
// full recompute) the same behavioural pairs recur constantly even though
// strategy *objects* churn through adoptions and mutations — the
// content-addressed cache must convert that recurrence into hits.
func TestPayoffCacheHitsSurviveMutations(t *testing.T) {
	cfg := testConfig(1, 10, 120)
	cfg.Seed = 7
	cfg.FullRecompute = true
	cfg.PayoffCache = true
	cfg.Metrics = true

	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Metrics.Phases[0].Cache
	if cs == nil {
		t.Fatal("no cache stats collected")
	}
	if res.Counters.Mutations == 0 || res.Counters.Adoptions == 0 {
		t.Fatalf("test needs churn to be meaningful: %+v", res.Counters)
	}
	if cs.Hits == 0 {
		t.Fatalf("no cache hits across %d full-recompute generations: %+v", cfg.Generations, cs)
	}
	if cs.Hits+cs.Misses != res.Counters.GamesPlayed {
		t.Fatalf("lookup total %d != games played %d (every deterministic pair should consult the cache)",
			cs.Hits+cs.Misses, res.Counters.GamesPlayed)
	}
	// Memory-one has only 2^4 pure strategies: the working set fits easily,
	// so the vast majority of scheduled games must be memo hits.
	if cs.HitRate() < 0.9 {
		t.Fatalf("hit rate %.3f < 0.9 at near-fixation workload: %+v", cs.HitRate(), cs)
	}
}

// TestPayoffCacheMetricsExport: the egd_* registry carries the per-rank
// cache series, on both engines.
func TestPayoffCacheMetricsExport(t *testing.T) {
	cfg := testConfig(1, 8, 30)
	cfg.Seed = 21
	cfg.FullRecompute = true
	cfg.PayoffCache = true
	cfg.PayoffCacheSize = 128
	cfg.Metrics = true

	res, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var workers int
	var total game.CacheStats
	for _, rs := range res.Metrics.Phases {
		if rs.Rank == 0 {
			if rs.Cache != nil {
				t.Fatal("Nature rank plays no games but carries cache stats")
			}
			continue
		}
		if rs.Cache == nil {
			t.Fatalf("worker rank %d missing cache stats", rs.Rank)
		}
		workers++
		total.Merge(*rs.Cache)
	}
	if workers != 2 {
		t.Fatalf("cache stats from %d workers, want 2", workers)
	}
	if total.Hits == 0 {
		t.Fatalf("parallel run recorded no hits: %+v", total)
	}

	snap := res.MetricsRegistry().Snapshot()
	for _, want := range []string{
		"egd_payoff_cache_hits_total",
		"egd_payoff_cache_misses_total",
		"egd_payoff_cache_evictions_total",
	} {
		present := false
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, want) {
				present = true
			}
		}
		if !present {
			t.Fatalf("registry missing %s series", want)
		}
	}
	var entries bool
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "egd_payoff_cache_entries") {
			entries = true
		}
	}
	if !entries {
		t.Fatal("registry missing egd_payoff_cache_entries gauge")
	}
}

// TestPayoffCacheTinyCapacityStillExact: a pathologically small cache must
// thrash (evict constantly) yet never change results.
func TestPayoffCacheTinyCapacityStillExact(t *testing.T) {
	base := testConfig(1, 8, 50)
	base.Seed = 5
	base.FullRecompute = true

	cached := base
	cached.PayoffCache = true
	cached.PayoffCacheSize = 2
	cached.Metrics = true

	off, err := RunSequential(base)
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunSequential(cached)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, off, on)
	cs := on.Metrics.Phases[0].Cache
	if cs == nil || cs.Evictions == 0 {
		t.Fatalf("2-entry cache should thrash: %+v", cs)
	}
	if cs.Entries > 2 {
		t.Fatalf("cache exceeded its bound: %+v", cs)
	}
}

func TestConfigRejectsNegativeCacheSize(t *testing.T) {
	cfg := testConfig(1, 4, 1)
	cfg.PayoffCacheSize = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative PayoffCacheSize validated")
	}
}
