package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// payoffTable is the payoff table every rank folds fitness over, and the one
// place a payoff is evaluated. Each rank holds its own copy, plays its block
// of the cells it lists and meets the others to fill the rest (rank.go); a
// world of one plays them all. None of its state is shared or sent. A run served by type (ServedByType) keys the table by strategy type,
// at most K×K cells for K live types. Any other run (noisy play, error-free
// mixed play, the reference kernel) keys it by SSet: each SSet is its own
// key, a change empties its row and column, and under FullRecompute every
// generation empties them all. Either way fitness is an SSet's row folded in
// column order over the refresh's key vector, so the value does not depend
// on who played a cell.
type payoffTable struct {
	// tab is the table fitness folds over. A NaN cell is missing. Keyed by
	// type, tab[a] is allocated when a changed SSet first holds type a, and
	// seen[a] stamps its row and column: one more than the epoch they were
	// filled under, 0 for an id never met. Keyed by SSet, tab is S rows of S
	// cells and seen is nil.
	tab    [][]float64
	seen   []uint32
	byType bool
	// kept is keptAcrossGenerations: a cell is played from the generation
	// its SSets were last changed in.
	kept bool
	// stats counts the scheduled games: a miss for every cell this table
	// plays, a hit for every one no rank plays — booked (book) on every
	// table but a worker's, so once over the ranks. Only a table
	// keyed by type reports them (cacheStats).
	stats  game.CacheStats
	worker bool
	// yield marks the table of a rank whose in-process world outnumbers the
	// cores (sharesCores): playCells plays its cells in slices of
	// yieldSlice and yields the thread between them.
	yield bool
	// keys holds each SSet's key as of the last refresh that listed cells,
	// which fitness, mean fitness and FinalFitness fold over; nil before the
	// first. rep[a] is the lowest SSet holding key a then.
	keys []int32
	rep  []int
	// full is the list of every ordered pair of SSets, which a full
	// recompute keyed by SSet lists every generation: built at the first
	// refresh, and cells is it from then on.
	full [][2]int32
	// prior is the FinalFitness of the snapshot the run resumed from, if it
	// recorded one.
	prior []float64
	// cells lists the key pairs the last refresh found without a cell; mark,
	// vals, live and held are scratch.
	cells [][2]int32
	mark  []int
	vals  []float64
	live  []int32
	held  []float64
	// The evaluator: the exact-payoff solver (exact mode) or the optional
	// paper-faithful search engine, else the pure or sampled match.
	solver *analysis.Solver
	eng    *game.SearchEngine
	// last is the most recent game.PlayPure match and its two players. The
	// error-free pure match is the one evaluator whose result holds both
	// cells of a pair bit for bit: played as (j, i) it walks the same move
	// sequence, Payoff.Score is symmetric and the rounds are added in the
	// same order, so Mean1 of match (i, j) is Mean0 of match (j, i). play
	// therefore answers the mirror of the match it just played from last —
	// listMissing lists a pair's two cells back to back for this. The
	// players are compared by identity, which is sound because a placed
	// strategy is never written to (Population.Adopt).
	last struct {
		s0, s1 *strategy.Pure
		res    game.Result
	}
	// stream is the sampled match's random stream, re-derived in place
	// from (seed, gen, i, j) for each one rather than allocated.
	stream rng.Source
	// mixed collects a playCells call's cells between two *strategy.Mixed
	// that neither the solver nor the search engine serves — each one's
	// place in the list, its players and its stream — for one
	// game.PlayMixedBatch call; scratch, like vals.
	mixed struct {
		at   []int
		a, b []*strategy.Mixed
		src  []rng.Source
		out  []game.Result
	}
}

func newPayoffTable(cfg *Config) payoffTable {
	s := cfg.NumSSets
	t := payoffTable{tab: make([][]float64, s), byType: ServedByType(cfg), kept: keptAcrossGenerations(cfg), rep: make([]int, s), mark: make([]int, s), prior: cfg.prior.final}
	if t.byType {
		t.seen = make([]uint32, s)
	} else {
		for i := range t.tab {
			t.tab[i] = make([]float64, s) // every SSet is changed at the first refresh, which empties its cells
		}
	}
	if cfg.ExactPayoffs {
		t.solver = analysis.NewSolver(strategy.NewSpace(cfg.Memory))
	}
	if cfg.UseSearchEngine {
		t.eng = game.NewSearchEngine(strategy.NewSpace(cfg.Memory))
	}
	return t
}

// ServedByType is the per-run keying rule (docs/KERNEL.md), and the one
// place it lives: the service's admission prices a job by it too. The table
// is keyed by strategy type when replaying any match of cfg's run is guaranteed
// to reproduce its payoff bit for bit, i.e. when the payoff is a pure
// function of the two behaviours and the rules — exact payoffs (the Markov
// payoff folds noise into the chain), or error-free play among
// deterministic strategies only (the pure kind, and initial strategies the
// type table knows and that are deterministic) — and never on the reference
// kernel. Everything else depends on the (gen,i,j)-keyed random stream, so
// it is keyed by SSet, where a cell lives only until one of its SSets
// changes.
func ServedByType(cfg *Config) bool {
	if cfg.referenceKernel || !cfg.ExactPayoffs && (cfg.Rules.ErrorRate != 0 || cfg.Kind != PureStrategies) {
		return false
	}
	for _, s := range cfg.InitialStrategies {
		if _, ok := strategy.CanonicalFingerprint(s); !ok || !cfg.ExactPayoffs && !strategy.IsDeterministic(s) {
			return false
		}
	}
	return true
}

// cacheStats snapshots the table's counters, nil unless it is keyed by type
// (so the metrics snapshot of a run keyed by SSet omits the field). Entries
// is the number of live types of pop holding a row.
func (t *payoffTable) cacheStats(pop *Population) *game.CacheStats {
	if !t.byType {
		return nil
	}
	st := t.stats
	for id, row := range t.tab {
		if row != nil && pop.types[id].count > 0 {
			st.Entries++
		}
	}
	return &st
}

// scheduledGames is the closed form of a generation's game count over the
// whole pair list of s SSets, changed of them dirty: every pair with all,
// otherwise all pairs minus the clean×clean ones. Whoever played the games,
// every rank tallies the schedule with it, so the counters agree at every
// rank count and at the end of the window's cross-check. It counts in
// uint64, which s×(s-1) fits where int is 32 bits too.
func scheduledGames(s, changed int, all bool) uint64 {
	n, clean := uint64(s), uint64(s-changed)
	if all {
		clean = 0
	}
	return n*(n-1) - clean*(clean-1) // 0 clean: 0×(2^64-1) is 0
}

// listMissing is the first half of a refresh for pop, the same on every
// rank: it empties the cells of the changed SSets' keys —
// of every key under FullRecompute keyed by SSet — lists in cells the live
// key pairs the table then holds no cell for, books the hits and returns
// the generation's scheduled games. Keyed by type, a changed SSet's type id
// the table has not met under its current epoch — new, or handed to a new
// behaviour since — first has its row and column emptied, so a previous
// owner's cells never answer for it. Only a changed SSet's key can lack a
// cell, so the list is, for each such key a ascending and each live key b
// ascending, (a, b) and right behind it its mirror (b, a) — but where b is
// a changed key ahead of a, whose pass listed both. A key pairs with itself
// only where two SSets hold it. Keeping mirrors adjacent is what lets play
// settle a pure match's second cell from the first's (payoffTable.last).
// Under FullRecompute keyed by SSet every SSet is changed, so the list is
// every ordered pair in that order, the same each generation: it is built
// once (full) and each cell is emptied once a generation.
func (t *payoffTable) listMissing(cfg *Config, pop *Population) uint64 {
	scheduled := scheduledGames(pop.Size(), len(pop.changed), cfg.FullRecompute)
	if cfg.FullRecompute && !t.byType { // every pair replays from gen's streams
		t.listAll()
		return t.book(scheduled)
	}
	t.cells = t.cells[:0]
	if len(pop.changed) == 0 {
		return t.book(scheduled)
	}
	tab := t.tab
	t.keys = append(t.keys[:0], pop.typ...)
	keys := len(pop.types)
	if !t.byType {
		for i := range t.keys {
			t.keys[i] = int32(i)
		}
		keys = len(tab)
	}
	clear(t.mark)
	for _, d := range pop.changed {
		a := t.keys[d]
		t.mark[a] = 1
		if !t.byType {
			for j := range tab {
				tab[d][j], tab[j][d] = math.NaN(), math.NaN()
			}
			continue
		}
		if stamp := pop.types[a].epoch + 1; t.seen[a] != stamp { // first met, or changed hands
			for _, row := range tab {
				if row != nil {
					row[a] = math.NaN()
				}
			}
			if tab[a] == nil {
				tab[a] = make([]float64, len(tab))
			}
			for b := range tab[a] {
				tab[a][b] = math.NaN()
			}
			t.seen[a] = stamp
		}
	}
	for a := range keys {
		if t.mark[a] == 0 {
			continue
		}
		for b := range keys {
			held := 1 // keyed by SSet: the one SSet that is the key
			if t.byType {
				held = pop.types[b].count
			}
			if held == 0 || a == b && held < 2 || b < a && t.mark[b] != 0 {
				continue
			}
			if v := tab[a][b]; v != v {
				t.cells = append(t.cells, [2]int32{int32(a), int32(b)})
			}
			if v := tab[b][a]; a != b && v != v {
				t.cells = append(t.cells, [2]int32{int32(b), int32(a)})
			}
		}
	}
	for i := len(t.keys) - 1; i >= 0; i-- {
		t.rep[t.keys[i]] = i
	}
	return t.book(scheduled)
}

// listAll is listMissing keyed by SSet with every SSet changed: it empties
// every cell and lists every ordered pair of SSets, (a, b) and right behind
// it (b, a) for a ascending and b > a ascending. Each SSet is its own key.
func (t *payoffTable) listAll() {
	for _, row := range t.tab {
		for j := range row {
			row[j] = math.NaN()
		}
	}
	if t.full == nil {
		s := len(t.tab)
		t.keys, t.full = make([]int32, s), make([][2]int32, 0, s*(s-1))
		for a := range s {
			t.keys[a], t.rep[a] = int32(a), a
			for b := a + 1; b < s; b++ {
				t.full = append(t.full, [2]int32{int32(a), int32(b)}, [2]int32{int32(b), int32(a)})
			}
		}
	}
	t.cells = t.full
}

// book counts the scheduled games the listed cells leave unplayed as hits —
// on every table but a worker's, so Nature books them once for the
// ranks — and returns scheduled.
func (t *payoffTable) book(scheduled uint64) uint64 {
	if !t.worker {
		t.stats.Hits += scheduled - uint64(len(t.cells))
	}
	return scheduled
}

// keptAcrossGenerations reports whether cfg's run keys its table by SSet and
// keeps a cell until one of its SSets changes: a cell of noisy or mixed play
// then holds the match of the generation it was played in, which a snapshot
// of the run records (Population.played) so a resumed run plays it again.
func keptAcrossGenerations(cfg *Config) bool { return !ServedByType(cfg) && !cfg.FullRecompute }

// yieldSlice is how many cells a table that yields (payoffTable.yield) plays
// between two yields: a multiple of the batch kernel's sixteen lanes, so
// slicing pads no kernel group that the whole list would not.
const yieldSlice = 64

// playCells plays cells between the keys' lowest holders — by type a
// memoizable match, so which holders play does not matter — from generation
// gen's streams; a cell kept across generations from the streams of the
// later of the generations its SSets were played from, which is gen except
// at a resumed run's first refresh. Each cell is a miss. The values are
// scratch, valid until the next call, and grow once per call, to the cells
// listed. A table that yields plays the cells in slices of yieldSlice and
// hands the thread to another goroutine between two (runtime.Gosched); any
// other plays them as one slice. No cell's value depends on the slice it
// is played in.
func (t *payoffTable) playCells(cfg *Config, pop *Population, master *rng.Source, gen int, cells [][2]int32) ([]float64, error) {
	t.vals = slices.Grow(t.vals[:0], len(cells))
	step := len(cells)
	if t.yield {
		step = yieldSlice
	}
	for lo := 0; lo < len(cells); lo += step {
		if lo > 0 {
			runtime.Gosched()
		}
		if err := t.playSlice(cfg, pop, master, gen, cells[lo:min(lo+step, len(cells))]); err != nil {
			return nil, err
		}
	}
	t.stats.Misses += uint64(len(cells))
	return t.vals, nil
}

// playSlice plays cells for playCells and appends their values to vals. The
// cells between two mixed strategies that play sampled are played in one
// batch (game.PlayMixedBatch), each from its own stream, so the order they
// are played in does not matter; their values take their places in vals.
// The batch's scratch grows at its first cell, to the cells left.
func (t *payoffTable) playSlice(cfg *Config, pop *Population, master *rng.Source, gen int, cells [][2]int32) error {
	m := &t.mixed
	m.at, m.a, m.b, m.src = m.at[:0], m.a[:0], m.b[:0], m.src[:0]
	for n, ab := range cells {
		i, j, g := t.rep[ab[0]], t.rep[ab[1]], gen
		if t.kept {
			g = max(pop.playedAt(i, gen), pop.playedAt(j, gen))
		}
		si, sj := pop.strategies[i], pop.strategies[j]
		if m0, m1, ok := t.sampledMixed(si, sj); ok {
			if len(m.at) == 0 {
				k := len(cells) - n
				m.at, m.a, m.b, m.src = slices.Grow(m.at, k), slices.Grow(m.a, k), slices.Grow(m.b, k), slices.Grow(m.src, k)
			}
			m.at, m.a, m.b, m.src = append(m.at, len(t.vals)), append(m.a, m0), append(m.b, m1), append(m.src, rng.Source{})
			matchStream(master, &m.src[len(m.src)-1], g, i, j)
			t.vals = append(t.vals, 0) // the batch's value, below
			continue
		}
		v, err := t.play(cfg, master, g, i, j, si, sj)
		if err != nil {
			return err
		}
		t.vals = append(t.vals, v)
	}
	if len(m.at) > 0 {
		m.out = slices.Grow(m.out[:0], len(m.at))[:len(m.at)]
		game.PlayMixedBatch(cfg.Rules, m.a, m.b, m.src, m.out)
		for k, n := range m.at {
			t.vals[n] = m.out[k].Mean0()
		}
	}
	return nil
}

// sampledMixed returns si and sj as mixed strategies where the match
// between them is a sampled one that playCells batches: both are
// *strategy.Mixed, and neither the exact solver nor the search engine
// evaluates it.
func (t *payoffTable) sampledMixed(si, sj strategy.Strategy) (m0, m1 *strategy.Mixed, ok bool) {
	if t.solver != nil || t.eng != nil {
		return nil, nil, false
	}
	m0, ok0 := si.(*strategy.Mixed)
	m1, ok1 := sj.(*strategy.Mixed)
	return m0, m1, ok0 && ok1
}

// matchStream re-derives dst in place as the stream of the sampled match
// (i, j) at generation gen: the one derivation of a match's stream, for a
// batched cell and for play alike.
func matchStream(master, dst *rng.Source, gen, i, j int) {
	master.DeriveInto(dst, 0x6A3E, uint64(gen), uint64(i), uint64(j))
}

// play is SSet i's mean per-round payoff against j at generation gen: the
// exact Markov payoff, the paper-faithful search engine, the bit-packed
// pure kernel, or the general sampled match, in that order of preference
// (playCells batches the sampled matches between two mixed strategies).
// The bit-packed path is unconditional when it applies (two pure
// strategies, no noise, direct indexing) because game.PlayPure is
// bit-identical to game.Play there — it is a strictly faster encoding of the
// same loop — and it alone serves a match's mirror from t.last: the solver
// iterates over a differently ordered chain for (j, i), and a sampled match
// draws from its own (gen, i, j) stream. rng.DeriveInto never advances the
// master stream, so which cells a table plays cannot shift any other draw.
func (t *payoffTable) play(cfg *Config, master *rng.Source, gen, i, j int, si, sj strategy.Strategy) (float64, error) {
	if t.solver != nil {
		pi0, _, err := t.solver.Payoff(cfg.Rules.Payoff, si, sj, cfg.Rules.ErrorRate)
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
	if t.eng == nil && cfg.Rules.ErrorRate == 0 {
		if p0, ok := si.(*strategy.Pure); ok {
			if p1, ok := sj.(*strategy.Pure); ok {
				if t.last.s0 == p1 && t.last.s1 == p0 {
					return t.last.res.Mean1(), nil
				}
				t.last.s0, t.last.s1, t.last.res = p0, p1, game.PlayPure(cfg.Rules, p0, p1)
				return t.last.res.Mean0(), nil
			}
		}
	}
	matchStream(master, &t.stream, gen, i, j)
	if t.eng != nil {
		return t.eng.Play(cfg.Rules, si, sj, &t.stream).Mean0(), nil
	}
	return game.Play(cfg.Rules, si, sj, &t.stream).Mean0(), nil
}

// install writes vals, in cells' order, into the table.
func (t *payoffTable) install(cells [][2]int32, vals []float64) {
	for n, ab := range cells {
		t.tab[ab[0]][ab[1]] = vals[n]
	}
}

// fitness returns SSet i's relative fitness over the refresh's key vector —
// its mean per-round payoff averaged over all S-1 opponents, its row folded
// in column order. The cells already hold mean per-round payoffs
// (game.Result.Mean0 divides by rounds; exact mode is per-round by
// construction), so the only normalisation applied here is 1/(S-1) —
// together they realise the paper's 1/((S-1)*rounds) scaling of raw match
// totals. The Fermi exponent therefore always works on the per-round payoff
// scale ([S..T], 1 = all-defect to 3 = full cooperation under the standard
// payoff), independent of population size and match length.
func (t *payoffTable) fitness(i int) float64 {
	row, total := t.tab[t.keys[i]], 0.0
	for j, b := range t.keys {
		if j != i {
			total += row[b]
		}
	}
	return total / float64(len(t.keys)-1)
}

// meanFitness is the population's mean relative fitness, Σ_a n_a Σ_b
// (n_b − δ_ab)·tab(a,b) over the refresh's key counts, live keys in the
// order of their lowest holder and each row's own pairing last — O(S + K²)
// for K live keys. Every rank count sums it in this one order. Each product
// is rounded by an explicit float64 conversion, which the Go spec forbids
// fusing into the add that follows, so an FMA-capable GOARCH (arm64, ppc64le,
// s390x, …) sums the same bits as amd64.
func (t *payoffTable) meanFitness() float64 {
	clear(t.mark)
	t.live = t.live[:0]
	for _, a := range t.keys {
		if t.mark[a]++; t.mark[a] == 1 {
			t.live = append(t.live, a)
		}
	}
	t.held = t.held[:0]
	for _, a := range t.live {
		t.held = append(t.held, float64(t.mark[a]))
	}
	total := 0.0
	for x, a := range t.live {
		row, sum := t.tab[a], 0.0
		for y, b := range t.live {
			if y != x {
				sum += float64(t.held[y] * row[b])
			}
		}
		if n := t.held[x]; n > 1 { // no SSet plays itself
			sum += float64((n - 1) * row[a])
		}
		total += float64(t.held[x] * sum)
	}
	s := len(t.keys)
	return total / (float64(s) * float64(s-1))
}

// finalFitness is every SSet's fitness over the last refresh's key vector.
// Before a first refresh it is what the snapshot the run resumed from
// recorded, zeros without one.
func (t *payoffTable) finalFitness() []float64 {
	out := make([]float64, len(t.rep))
	if t.keys == nil {
		copy(out, t.prior)
		return out
	}
	for i := range t.keys {
		out[i] = t.fitness(i)
	}
	return out
}
