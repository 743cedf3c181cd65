package sim

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// payoffKernel bundles the per-rank machinery of one run's payoff
// evaluation: the optional paper-faithful search engine, the optional
// strategy-pair payoff cache, and a pointer-keyed fingerprint memo. Each
// rank (and the sequential engine) owns exactly one kernel; none of its
// state is shared or sent. A nil kernel is valid and selects the plain
// uncached path — tests exercising pairBlock.refresh directly rely on this.
//
// The cacheability contract (docs/KERNEL.md): a pair payoff may be served
// from the cache only when replaying the match is guaranteed to reproduce
// it bit for bit, i.e. when the payoff is a pure function of the two
// behaviour tables and the rules. That holds in exact mode (the Markov
// payoff is deterministic by construction, noise folded into the chain) and
// for sampled matches when ErrorRate == 0 and both strategies are
// deterministic (strategy.IsDeterministic). Everything else — noisy play,
// non-degenerate mixed strategies — depends on the (gen,i,j)-keyed random
// stream and bypasses the cache, keeping cache-on and cache-off
// trajectories identical.
type payoffKernel struct {
	eng   *game.SearchEngine
	cache *game.PairCache
	// fps memoizes canonical fingerprints per live Strategy value (pointer
	// identity). Population strategies are shared, not mutated in place —
	// every change installs a fresh Clone — so a pointer's fingerprint never
	// goes stale. Bounded by fpCap; lookups and inserts only (no iteration),
	// so the determinism lint holds.
	fps   map[strategy.Strategy]strategy.Fingerprint
	fpCap int
	// tab* is the per-pass fingerprint table built by prepare(): one entry
	// per SSet so the pair loop pays two slice loads instead of two
	// interface-map lookups per match. tabStrats records which strategy
	// value each entry was computed from; pairPayoff uses the table only
	// when the passed strategy is that exact value, so a stale table (or a
	// direct pairPayoff call that never prepared one) degrades to the slow
	// path instead of mis-keying.
	tabStrats []strategy.Strategy
	tabFP     []strategy.Fingerprint
	tabOK     []bool
}

// fpMemoSlack scales the fingerprint-memo bound: a population of S
// strategies plus churn keeps ~S live values, so 4·S entries absorb several
// generations of turnover before a reset.
const fpMemoSlack = 4

// newPayoffKernel builds the kernel for one rank of a validated config.
func newPayoffKernel(cfg *Config) *payoffKernel {
	k := &payoffKernel{}
	if cfg.UseSearchEngine {
		k.eng = game.NewSearchEngine(strategy.NewSpace(cfg.Memory))
	}
	if cfg.PayoffCache {
		k.cache = game.NewPairCache(cfg.PayoffCacheSize)
		bound := fpMemoSlack * cfg.NumSSets
		k.fps = make(map[strategy.Strategy]strategy.Fingerprint, bound)
		k.fpCap = bound
	}
	return k
}

// cacheStats snapshots the pair cache, nil when caching is disabled (so the
// metrics snapshot field stays omitted and wire sizes are unchanged).
func (k *payoffKernel) cacheStats() *game.CacheStats {
	if k == nil || k.cache == nil {
		return nil
	}
	st := k.cache.Stats()
	return &st
}

// fingerprint returns the canonical fingerprint of s through the
// pointer-keyed memo.
func (k *payoffKernel) fingerprint(s strategy.Strategy) (strategy.Fingerprint, bool) {
	if fp, ok := k.fps[s]; ok {
		return fp, true
	}
	fp, ok := strategy.CanonicalFingerprint(s)
	if !ok {
		return fp, false
	}
	if len(k.fps) >= k.fpCap {
		clear(k.fps)
	}
	k.fps[s] = fp
	return fp, true
}

// prepare (re)builds the per-pass fingerprint table from the population
// ahead of a refresh sweep. It costs one memo lookup per SSet —
// amortised over up to S-1 matches each — and is a no-op without a cache.
func (k *payoffKernel) prepare(cfg *Config, pop *Population) {
	if k == nil || k.cache == nil {
		return
	}
	n := pop.Size()
	if cap(k.tabStrats) < n {
		k.tabStrats = make([]strategy.Strategy, n)
		k.tabFP = make([]strategy.Fingerprint, n)
		k.tabOK = make([]bool, n)
	}
	k.tabStrats = k.tabStrats[:n]
	k.tabFP = k.tabFP[:n]
	k.tabOK = k.tabOK[:n]
	noiseless := cfg.Rules.ErrorRate == 0
	for i := 0; i < n; i++ {
		s := pop.strategies[i]
		k.tabStrats[i] = s
		if !cfg.ExactPayoffs && (!noiseless || !strategy.IsDeterministic(s)) {
			k.tabOK[i] = false
			continue
		}
		k.tabFP[i], k.tabOK[i] = k.fingerprint(s)
	}
}

// pairKey builds the cache key for the ordered match (si, sj), reporting
// ok = false when the pair is not memoizable under the contract above.
func (k *payoffKernel) pairKey(cfg *Config, si, sj strategy.Strategy) (game.PairKey, bool) {
	if !cfg.ExactPayoffs {
		if cfg.Rules.ErrorRate != 0 {
			return game.PairKey{}, false
		}
		if !strategy.IsDeterministic(si) || !strategy.IsDeterministic(sj) {
			return game.PairKey{}, false
		}
	}
	fa, ok := k.fingerprint(si)
	if !ok {
		return game.PairKey{}, false
	}
	fb, ok := k.fingerprint(sj)
	if !ok {
		return game.PairKey{}, false
	}
	return game.NewPairKey(fa, fb, cfg.Rules, cfg.ExactPayoffs), true
}

// tableKey is the hot-path key builder: when the prepared table covers
// both indices with the exact strategy values passed, it answers from two
// slice loads; any mismatch falls back to pairKey's memo lookups.
func (k *payoffKernel) tableKey(cfg *Config, i, j int, si, sj strategy.Strategy) (game.PairKey, bool) {
	if i < len(k.tabStrats) && j < len(k.tabStrats) && k.tabStrats[i] == si && k.tabStrats[j] == sj {
		if !k.tabOK[i] || !k.tabOK[j] {
			return game.PairKey{}, false
		}
		return game.NewPairKey(k.tabFP[i], k.tabFP[j], cfg.Rules, cfg.ExactPayoffs), true
	}
	return k.pairKey(cfg, si, sj)
}

// pairPayoff evaluates the (i, j) match — through the cache when the pair
// is memoizable — returning SSet i's mean per-round payoff against j.
// Randomness still derives from (seed, gen, i, j) on the uncached path, and
// rng.Derive never advances the master stream, so serving a hit cannot
// shift any other draw: cache-on and cache-off runs stay bit-identical.
func (k *payoffKernel) pairPayoff(cfg *Config, master *rng.Source, gen, i, j int, si, sj strategy.Strategy) (float64, error) {
	if k != nil && k.cache != nil {
		if key, ok := k.tableKey(cfg, i, j, si, sj); ok {
			if v, hit := k.cache.Get(key); hit {
				return v, nil
			}
			v, err := k.play(cfg, master, gen, i, j, si, sj)
			if err != nil {
				return 0, err
			}
			k.cache.Put(key, v)
			return v, nil
		}
	}
	return k.play(cfg, master, gen, i, j, si, sj)
}

// play computes the match payoff without consulting the cache: the exact
// Markov payoff, the paper-faithful search engine, the bit-packed pure
// kernel, or the general sampled match, in that order of preference. The
// bit-packed path is unconditional when it applies (two pure strategies,
// no noise, direct indexing) because game.PlayPure is bit-identical to
// game.Play there — it is a strictly faster encoding of the same loop.
func (k *payoffKernel) play(cfg *Config, master *rng.Source, gen, i, j int, si, sj strategy.Strategy) (float64, error) {
	if cfg.ExactPayoffs {
		pi0, _, err := analysis.MarkovPayoffN(cfg.Rules.Payoff, si, sj, cfg.Rules.ErrorRate)
		if err != nil {
			// Config.Validate probes exact-mode computability up front, so
			// this is nearly unreachable — but a malformed job (say, an
			// observer injecting a wrong-space strategy) must surface as an
			// error the caller can fail one run with, never a panic that
			// takes down a long-running daemon hosting many runs.
			return 0, fmt.Errorf("sim: exact payoff for pair (%d,%d) at generation %d: %w", i, j, gen, err)
		}
		return pi0, nil
	}
	src := master.Derive(0x6A3E, uint64(gen), uint64(i), uint64(j))
	if k != nil && k.eng != nil {
		return k.eng.Play(cfg.Rules, si, sj, src).Mean0(), nil
	}
	if cfg.Rules.ErrorRate == 0 {
		if p0, ok := si.(*strategy.Pure); ok {
			if p1, ok := sj.(*strategy.Pure); ok {
				return game.PlayPure(cfg.Rules, p0, p1).Mean0(), nil
			}
		}
	}
	return game.Play(cfg.Rules, si, sj, src).Mean0(), nil
}
