package sim

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// payoffKernel bundles the per-rank machinery of one run's payoff
// evaluation: the exact-payoff solver (exact mode), the optional
// paper-faithful search engine and the optional strategy-pair payoff cache
// with its per-pass fingerprint table. Each rank (and the sequential
// engine) owns exactly one kernel; none of its state is shared or sent.
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
	solver *analysis.Solver
	eng    *game.SearchEngine
	cache  *game.PairCache
	// tab* is the per-pass fingerprint table prepare() builds from the
	// population: one entry per SSet, so the pair loop pays two slice loads
	// per match. tabOK[i] is false when SSet i's strategy is not memoizable
	// under the contract above.
	tabFP []strategy.Fingerprint
	tabOK []bool
}

// newPayoffKernel builds the kernel for one rank of a validated config.
func newPayoffKernel(cfg *Config) *payoffKernel {
	k := &payoffKernel{}
	if cfg.ExactPayoffs {
		k.solver = analysis.NewSolver(strategy.NewSpace(cfg.Memory))
	}
	if cfg.UseSearchEngine {
		k.eng = game.NewSearchEngine(strategy.NewSpace(cfg.Memory))
	}
	if cfg.PayoffCache {
		k.cache = game.NewPairCache(cfg.PayoffCacheSize)
	}
	return k
}

// cacheStats snapshots the pair cache, nil when caching is disabled (so the
// metrics snapshot field stays omitted and wire sizes are unchanged).
func (k *payoffKernel) cacheStats() *game.CacheStats {
	if k.cache == nil {
		return nil
	}
	st := k.cache.Stats()
	return &st
}

// prepare (re)builds the per-pass fingerprint table from the population
// ahead of a refresh sweep. It costs one fingerprint per SSet — amortised
// over up to S-1 matches each — and is a no-op without a cache.
func (k *payoffKernel) prepare(cfg *Config, pop *Population) {
	if k.cache == nil {
		return
	}
	n := pop.Size()
	if cap(k.tabFP) < n {
		k.tabFP = make([]strategy.Fingerprint, n)
		k.tabOK = make([]bool, n)
	}
	k.tabFP = k.tabFP[:n]
	k.tabOK = k.tabOK[:n]
	noiseless := cfg.Rules.ErrorRate == 0
	for i, s := range pop.strategies {
		if !cfg.ExactPayoffs && (!noiseless || !strategy.IsDeterministic(s)) {
			k.tabOK[i] = false
			continue
		}
		k.tabFP[i], k.tabOK[i] = strategy.CanonicalFingerprint(s)
	}
}

// pairPayoff evaluates the (i, j) match — through the cache when the pair
// is memoizable — returning SSet i's mean per-round payoff against j. With
// a cache, prepare must have run on the population si and sj come from.
// Randomness still derives from (seed, gen, i, j) on the uncached path, and
// rng.Derive never advances the master stream, so serving a hit cannot
// shift any other draw: cache-on and cache-off runs stay bit-identical.
func (k *payoffKernel) pairPayoff(cfg *Config, master *rng.Source, gen, i, j int, si, sj strategy.Strategy) (float64, error) {
	if k.cache == nil || !k.tabOK[i] || !k.tabOK[j] {
		return k.play(cfg, master, gen, i, j, si, sj)
	}
	key := game.NewPairKey(k.tabFP[i], k.tabFP[j], cfg.Rules, cfg.ExactPayoffs)
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

// play computes the match payoff without consulting the cache: the exact
// Markov payoff, the paper-faithful search engine, the bit-packed pure
// kernel, or the general sampled match, in that order of preference. The
// bit-packed path is unconditional when it applies (two pure strategies,
// no noise, direct indexing) because game.PlayPure is bit-identical to
// game.Play there — it is a strictly faster encoding of the same loop.
func (k *payoffKernel) play(cfg *Config, master *rng.Source, gen, i, j int, si, sj strategy.Strategy) (float64, error) {
	if k.solver != nil {
		pi0, _, err := k.solver.Payoff(cfg.Rules.Payoff, si, sj, cfg.Rules.ErrorRate)
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
	if k.eng != nil {
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
