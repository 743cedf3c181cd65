package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// assertBitIdentical is the table-parity comparator: it demands exact
// equality everywhere, because a run with the table and a reference run of
// the SAME engine share every accumulation order — all but one: the
// mean-fitness series sums over the table's key counts
// (payoffTable.meanFitness), which on the reference kernel are SSets and
// with the table types, so meanTol is reductionDrift wherever b was served
// by type, and 0 elsewhere.
func assertBitIdentical(t *testing.T, a, b *Result, meanTol float64) {
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
	assertSameSeries(t, "mean fitness", a.MeanFitness, b.MeanFitness, meanTol)
	assertSameSeries(t, "cooperation", a.Cooperation, b.Cooperation, 0)
}

// typedTol is assertBitIdentical's meanTol for a table run of cfg against
// its reference-kernel run, at any rank count.
func typedTol(cfg Config) float64 {
	if ServedByType(&cfg) {
		return reductionDrift
	}
	return 0
}

// reference is cfg on the reference kernel: every scheduled match evaluated,
// no payoff table — what the table is held to bit for bit.
func reference(cfg Config) Config {
	cfg.referenceKernel = true
	return cfg
}

// TestPayoffCacheBitParity: the payoff table, on by default, changes nothing
// observable about a trajectory. Every evaluator and schedule (the subtests)
// × pure, error-free mixed and noisy mixed strategies × 1, 2, 3 and 5 ranks
// runs once with the table and once on the reference
// kernel, and the two are equal bit for bit — counters, final strategies,
// final fitness and cooperation; the mean-fitness series of a run served by
// type within reductionDrift — and across rank counts the usual rank-count
// invariance holds, mean fitness bit for bit.
func TestPayoffCacheBitParity(t *testing.T) {
	kinds := []struct {
		name  string
		apply func(*Config)
	}{
		{"pure", func(*Config) {}},
		{"mixed", func(c *Config) { c.Kind = MixedStrategies }},
		{"mixed noisy", func(c *Config) { c.Kind, c.Rules.ErrorRate = MixedStrategies, 0.05 }},
	}
	modes := []struct {
		name      string
		apply     func(*Config)
		schedules []bool // FullRecompute values
	}{
		{"incremental", func(*Config) {}, []bool{false}},
		{"full", func(*Config) {}, []bool{true}},
		{"exact", func(c *Config) { c.ExactPayoffs = true }, []bool{false, true}},
		{"search", func(c *Config) { c.UseSearchEngine = true }, []bool{false, true}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for _, full := range mode.schedules {
				for _, kind := range kinds {
					base := testConfig(1, 10, 60)
					base.Seed = 314
					base.FullRecompute = full
					mode.apply(&base)
					kind.apply(&base)
					var seq *Result
					for _, ranks := range []int{1, 2, 3, 5} {
						what := fmt.Sprintf("%s, full=%v, %d ranks", kind.name, full, ranks)
						off, err := Run(reference(base), ranks)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						on, err := Run(base, ranks)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						t.Run(what, func(t *testing.T) { assertBitIdentical(t, off, on, typedTol(base)) })
						if seq == nil {
							seq = on
						} else {
							assertSameTrajectory(t, seq, on)
						}
					}
				}
			}
		})
	}
}

// TestPayoffCacheParityMixedNoise: with non-degenerate mixed strategies and
// execution errors every match depends on the (gen,i,j) random stream, so no
// table is allocated at all — no rank carries cache stats — and the run is
// the reference run bit for bit.
func TestPayoffCacheParityMixedNoise(t *testing.T) {
	base := testConfig(1, 8, 40)
	base.Seed = 99
	base.Kind = MixedStrategies
	base.Rules.ErrorRate = 0.05
	base.Metrics = true
	for _, ranks := range []int{1, 3} {
		off, err := Run(reference(base), ranks)
		if err != nil {
			t.Fatal(err)
		}
		on, err := Run(base, ranks)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, off, on, 0)
		for _, rs := range on.Metrics.Phases {
			if rs.Cache != nil {
				t.Fatalf("%d ranks: rank %d of a noisy run carries cache stats %+v", ranks, rs.Rank, *rs.Cache)
			}
		}
	}
}

// TestDefaultRunIsServedByType is the property the default mode's speed rests
// on: egdsim with no flags (sim.DefaultSpec, pure, error-free, incremental)
// serves recurring type pairs from the table, so hits + misses = GamesPlayed
// over the ranks. Every rank holds the table: each rank's misses are the
// cells it played, and Nature's hits are every scheduled game no rank had
// to play.
func TestDefaultRunIsServedByType(t *testing.T) {
	spec := DefaultSpec()
	spec.Metrics = true
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3, 5} {
		res, err := Run(cfg, ranks)
		if err != nil {
			t.Fatal(err)
		}
		var total game.CacheStats
		for _, rs := range res.Metrics.Phases {
			if rs.Cache == nil || rs.Rank == 0 && rs.Cache.Hits == 0 || rs.Cache.Misses == 0 {
				t.Fatalf("%d ranks: rank %d cache stats %+v: want Nature's hits and each rank's misses", ranks, rs.Rank, rs.Cache)
			}
			total.Merge(*rs.Cache)
		}
		if total.Hits+total.Misses != res.Counters.GamesPlayed {
			t.Fatalf("%d ranks: %d hits + %d misses for %d games played", ranks, total.Hits, total.Misses, res.Counters.GamesPlayed)
		}
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
// cache series.
func TestPayoffCacheMetricsExport(t *testing.T) {
	cfg := testConfig(1, 8, 30)
	cfg.Seed = 21
	cfg.FullRecompute = true
	cfg.Metrics = true

	res, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank holds the table: Nature books the hits, every rank the
	// cells it played.
	var total game.CacheStats
	for _, rs := range res.Metrics.Phases {
		if rs.Cache == nil {
			t.Fatalf("rank %d missing cache stats", rs.Rank)
		}
		total.Merge(*rs.Cache)
	}
	if len(res.Metrics.Phases) != 3 || total.Hits == 0 || total.Hits+total.Misses != res.Counters.GamesPlayed {
		t.Fatalf("parallel run recorded %+v over %d ranks for %d games", total, len(res.Metrics.Phases), res.Counters.GamesPlayed)
	}

	snap := res.MetricsRegistry().Snapshot()
	for _, want := range []string{
		"egd_payoff_cache_hits_total",
		"egd_payoff_cache_misses_total",
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

// TestTableForgetsReclaimedID: when a type dies and its id is handed to a
// new behaviour, the cells the old owner filled must not answer for the new
// one. AllC against AllD earns 0 a round; the TFT that takes AllC's id earns
// 1 from the second round on. Removing listMissing's epoch stamp check
// serves the 0.
func TestTableForgetsReclaimedID(t *testing.T) {
	cfg := testConfig(1, 2, 0)
	sp := strategy.NewSpace(1)
	cfg.InitialStrategies = []strategy.Strategy{strategy.AllC(sp), strategy.AllD(sp)}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	master := rng.New(cfg.Seed)
	cfg.FullRecompute = true
	pop := NewPopulation(cfg, master)
	l := localOn(&cfg, pop, master)
	refresh := func() {
		t.Helper()
		if _, err := l.refresh(0); err != nil {
			t.Fatal(err)
		}
	}
	refresh()
	refresh()
	if l.cell(0, 1) != 0 || l.stats != (game.CacheStats{Hits: 2, Misses: 2}) {
		t.Fatalf("AllC against AllD pays %v with %+v, want 0 from 2 misses then 2 hits", l.cell(0, 1), l.stats)
	}
	old := pop.typ[0]
	pop.SetStrategy(0, strategy.TFT(sp))
	if pop.typ[0] != old || pop.types[old].epoch != 1 {
		t.Fatalf("TFT took id %d at epoch %d, want the dead AllC's id %d at epoch 1", pop.typ[0], pop.types[pop.typ[0]].epoch, old)
	}
	refresh()
	uncached := reference(cfg)
	plain := localOn(&uncached, pop, master)
	if _, err := plain.refresh(0); err != nil {
		t.Fatal(err)
	}
	if l.cell(0, 1) != plain.cell(0, 1) || l.cell(1, 0) != plain.cell(1, 0) || plain.cell(0, 1) == 0 {
		t.Fatalf("payoffs %v, %v after the id changed hands, want the replayed %v, %v", l.cell(0, 1), l.cell(1, 0), plain.cell(0, 1), plain.cell(1, 0))
	}
	if l.stats.Misses != 4 {
		t.Fatalf("%+v: both cells of the reclaimed id must be played again", l.stats)
	}
}

// TestPayoffCacheSurvivesIDRecycling: memory two, 8 SSets and a mutation
// every other generation, so far more than 4·S types live and die and every
// type id changes hands several times — on 1, 2, 3 and 5 ranks the run is the reference run bit for bit, and every
// scheduled game was a lookup.
func TestPayoffCacheSurvivesIDRecycling(t *testing.T) {
	base := testConfig(2, 8, 400)
	base.Seed = 77
	base.Mu = 0.5
	base.PCRate = 1
	base.Metrics = true
	cached := base
	minEpoch := uint32(0)
	cached.Observer = func(gen int, pop *Population, _ Events) {
		if gen == base.Generations-1 {
			minEpoch = math.MaxUint32
			for _, ty := range pop.types {
				minEpoch = min(minEpoch, ty.epoch)
			}
		}
	}
	for _, ranks := range []int{1, 2, 3, 5} {
		off, err := Run(reference(base), ranks)
		if err != nil {
			t.Fatal(err)
		}
		on, err := Run(cached, ranks)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, off, on, typedTol(cached))
		if on.Counters.Mutations <= 4*8 || minEpoch < 3 {
			t.Fatalf("ranks %d: %d mutations, least-recycled id at epoch %d: the run does not recycle every id", ranks, on.Counters.Mutations, minEpoch)
		}
		var cs game.CacheStats
		for _, rs := range on.Metrics.Phases {
			if rs.Cache != nil {
				cs.Merge(*rs.Cache)
			}
		}
		if cs.Hits == 0 || cs.Hits+cs.Misses != on.Counters.GamesPlayed {
			t.Fatalf("ranks %d: %+v for %d games played", ranks, cs, on.Counters.GamesPlayed)
		}
	}
}
