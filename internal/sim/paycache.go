package sim

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// payoffKernel bundles the per-rank machinery of one run's payoff
// evaluation: the exact-payoff solver (exact mode), the optional
// paper-faithful search engine and the payoff table by strategy type. Each
// rank (and the sequential engine) owns exactly one kernel; none of its state
// is shared or sent.
//
// The cacheability contract (docs/KERNEL.md): a pair payoff is served from
// the table only when replaying the match is guaranteed to reproduce it bit
// for bit, i.e. when the payoff is a pure function of the two behaviour
// tables and the rules. That holds in exact mode (the Markov payoff is
// deterministic by construction, noise folded into the chain) and for sampled
// matches when ErrorRate == 0 and both strategies are deterministic
// (strategy.IsDeterministic). Everything else — noisy play, non-degenerate
// mixed strategies — depends on the (gen,i,j)-keyed random stream and
// bypasses the table, so the table changes no trajectory: it is the one
// production path, and the reference kernel without it
// (Config.referenceKernel) exists only for the bit-parity tests to compare
// against.
type payoffKernel struct {
	solver *analysis.Solver
	eng    *game.SearchEngine
	// pi[a][b] is the payoff of type a against type b (the Population's
	// type ids, so at most S rows of S cells), NaN until played; a row is
	// allocated when an SSet of its type first heads a row of a refresh.
	// seen[a] stamps the cells of id a: one more than the epoch they were
	// filled under, 0 for an id never met. pi is nil when no pair of the run
	// is memoizable (noisy sampled play) and in the reference kernel; stats
	// counts the table's lookups.
	pi    [][]float64
	seen  []uint32
	stats game.CacheStats
	// last is the most recent game.PlayPure match and its two players. The
	// error-free pure match is the one evaluator whose result holds both
	// cells of a pair bit for bit: played as (j, i) it walks the same move
	// sequence, Payoff.Score is symmetric and the rounds are added in the
	// same order, so Mean1 of match (i, j) is Mean0 of match (j, i). play
	// therefore answers the mirror of the match it just played from last —
	// refreshChanged replays a pair's two cells back to back for this. The
	// players are compared by identity, which is sound because a placed
	// strategy is never written to (Population.Adopt).
	last struct {
		s0, s1 *strategy.Pure
		res    game.Result
	}
	// src is the stream of the sampled match being played, re-derived in
	// place from (seed, gen, i, j) for each one rather than allocated.
	src rng.Source
}

// newPayoffKernel builds the kernel for one rank of a validated config. The
// table is built whenever the run can be memoized — exact mode or no
// execution noise; met then decides per type — so every error-free
// deterministic match and every exact solve is evaluated once per type pair.
func newPayoffKernel(cfg *Config) *payoffKernel {
	k := &payoffKernel{}
	if cfg.ExactPayoffs {
		k.solver = analysis.NewSolver(strategy.NewSpace(cfg.Memory))
	}
	if cfg.UseSearchEngine {
		k.eng = game.NewSearchEngine(strategy.NewSpace(cfg.Memory))
	}
	if (cfg.ExactPayoffs || cfg.Rules.ErrorRate == 0) && !cfg.referenceKernel {
		k.pi, k.seen = make([][]float64, cfg.NumSSets), make([]uint32, cfg.NumSSets)
	}
	return k
}

// cacheStats snapshots the table's counters, nil when the kernel has no
// table (so a noisy run's metrics snapshot omits the field). Entries is the
// number of live types of pop holding a row.
func (k *payoffKernel) cacheStats(pop *Population) *game.CacheStats {
	if k.pi == nil {
		return nil
	}
	st := k.stats
	for id, row := range k.pi {
		if row != nil && pop.types[id].count > 0 {
			st.Entries++
		}
	}
	return &st
}

// met reports whether payoffs of pop's type id may be stored in and read
// from the table under the contract above. If so the kernel has by then
// stamped the id with its current epoch, which is what hit checks, after
// dropping the row and emptying the column a previous owner of the id
// filled.
func (k *payoffKernel) met(pop *Population, id int32) bool {
	if id < 0 || k.solver == nil && !pop.types[id].det {
		return false
	}
	if stamp := pop.types[id].epoch + 1; k.seen[id] != stamp {
		for _, row := range k.pi {
			if row != nil {
				row[id] = math.NaN()
			}
		}
		k.pi[id], k.seen[id] = nil, stamp
	}
	return true
}

// row returns the table row of SSet i's type for pairPayoff — allocated on
// this first touch — or nil when SSet i's payoffs are not memoizable.
func (k *payoffKernel) row(pop *Population, i int) []float64 {
	a := pop.typ[i]
	if k.pi == nil || !k.met(pop, a) {
		return nil
	}
	if k.pi[a] == nil {
		k.pi[a] = make([]float64, len(k.pi))
		for b := range k.pi[a] {
			k.pi[a][b] = math.NaN()
		}
	}
	return k.pi[a]
}

// hit answers the (i, j) match from row, which is k.row(pop, i): j's type
// id, its stamp and the cell. It is small enough to inline into refresh's
// pair loop; whatever it cannot answer goes to pairPayoff.
func (k *payoffKernel) hit(pop *Population, row []float64, j int) (float64, bool) {
	b := pop.typ[j]
	if row == nil || b < 0 || k.seen[b] != pop.types[b].epoch+1 || row[b] != row[b] {
		return 0, false
	}
	k.stats.Hits++
	return row[b], true
}

// payoff is SSet i's payoff against j in pop: hit's answer, else
// pairPayoff's.
func (k *payoffKernel) payoff(cfg *Config, pop *Population, master *rng.Source, gen, i, j int) (float64, error) {
	row := k.row(pop, i)
	if v, ok := k.hit(pop, row, j); ok {
		return v, nil
	}
	return k.pairPayoff(cfg, pop, master, gen, row, i, j)
}

// pairPayoff evaluates an (i, j) match of pop that hit did not answer,
// returning SSet i's mean per-round payoff against j and storing it in row
// when the pair is memoizable. Randomness still derives from (seed, gen, i,
// j) on the uncached path, and rng.DeriveInto never advances the master stream,
// so serving a hit cannot shift any other draw: the table and the reference
// kernel give bit-identical runs.
func (k *payoffKernel) pairPayoff(cfg *Config, pop *Population, master *rng.Source, gen int, row []float64, i, j int) (float64, error) {
	v, err := k.play(cfg, master, gen, i, j, pop.strategies[i], pop.strategies[j])
	if b := pop.typ[j]; err == nil && row != nil && k.met(pop, b) {
		k.stats.Misses++
		row[b] = v
	}
	return v, err
}

// play computes the match payoff without consulting the cache: the exact
// Markov payoff, the paper-faithful search engine, the bit-packed pure
// kernel, or the general sampled match, in that order of preference. The
// bit-packed path is unconditional when it applies (two pure strategies,
// no noise, direct indexing) because game.PlayPure is bit-identical to
// game.Play there — it is a strictly faster encoding of the same loop — and
// it alone serves a match's mirror from k.last: the solver iterates over a
// differently ordered chain for (j, i), and a sampled match draws from its
// own (gen, i, j) stream.
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
	if k.eng == nil && cfg.Rules.ErrorRate == 0 {
		if p0, ok := si.(*strategy.Pure); ok {
			if p1, ok := sj.(*strategy.Pure); ok {
				if k.last.s0 == p1 && k.last.s1 == p0 {
					return k.last.res.Mean1(), nil
				}
				k.last.s0, k.last.s1, k.last.res = p0, p1, game.PlayPure(cfg.Rules, p0, p1)
				return k.last.res.Mean0(), nil
			}
		}
	}
	master.DeriveInto(&k.src, 0x6A3E, uint64(gen), uint64(i), uint64(j))
	if k.eng != nil {
		return k.eng.Play(cfg.Rules, si, sj, &k.src).Mean0(), nil
	}
	return game.Play(cfg.Rules, si, sj, &k.src).Mean0(), nil
}
