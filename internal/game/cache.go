package game

import (
	"container/list"
	"math"

	"repro/internal/strategy"
)

// DefaultPairCacheSize is the default entry bound for PairCache. At 24 bytes
// of payload per entry (plus map/list overhead) 65536 entries stay well under
// 10 MB while covering every ordered pair of a 256-strategy population.
const DefaultPairCacheSize = 1 << 16

// PairKey identifies one memoizable ordered match: the canonical
// fingerprints of both strategies plus every Rules parameter that influences
// the payoff. ErrorRate enters as its exact bit pattern so distinct noise
// levels can never alias.
type PairKey struct {
	A, B      strategy.Fingerprint
	Rounds    int
	ErrorBits uint64
	// Exact distinguishes the Markov stationary-distribution payoff
	// (sim -exact) from the sampled-match payoff: the two paths produce
	// different numbers for the same pair and must never share an entry.
	Exact bool
}

// NewPairKey builds the cache key for an ordered match of the strategies
// fingerprinted a (player 0) and b (player 1) under the given rules.
func NewPairKey(a, b strategy.Fingerprint, rules Rules, exact bool) PairKey {
	return PairKey{
		A:         a,
		B:         b,
		Rounds:    rules.Rounds,
		ErrorBits: math.Float64bits(rules.ErrorRate),
		Exact:     exact,
	}
}

// CacheStats is a point-in-time snapshot of PairCache counters. It is
// attached to the per-rank metrics snapshot gathered by the engines and
// exported through the egd_* registry (see docs/KERNEL.md for the catalog).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Merge folds another snapshot into s (counters add; Entries/Capacity add
// too, since ranks hold disjoint caches).
func (s *CacheStats) Merge(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Capacity += o.Capacity
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// pairEntry is the list payload: the key (needed again at eviction time) and
// player 0's mean per-round payoff for the match.
type pairEntry struct {
	key PairKey
	pay float64
}

// PairCache is a bounded LRU memo from PairKey to player 0's mean per-round
// payoff. It is content-addressed: because the key is a behavioural
// fingerprint, an entry survives the strategies that produced it being
// mutated, copied, or re-created — any later pair with identical behaviour
// hits. Not safe for concurrent use; each rank owns its own cache.
type PairCache struct {
	cap       int
	ll        *list.List // front = most recently used
	idx       map[PairKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewPairCache returns an empty cache bounded to capacity entries
// (DefaultPairCacheSize if capacity <= 0). The index map grows on demand
// rather than pre-allocating the full bound: near-fixation workloads hold
// a handful of behaviour pairs, and zeroing a 64 Ki-slot map up front
// would dominate short runs.
func NewPairCache(capacity int) *PairCache {
	if capacity <= 0 {
		capacity = DefaultPairCacheSize
	}
	hint := capacity
	if hint > 1024 {
		hint = 1024
	}
	return &PairCache{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[PairKey]*list.Element, hint),
	}
}

// Get looks up the memoized payoff for the key, refreshing its recency on a
// hit. Every call counts as exactly one hit or one miss. The front entry is
// checked before the index: near fixation one behaviour pair dominates the
// schedule, and a plain struct compare beats hashing the 56-byte key.
func (c *PairCache) Get(k PairKey) (pay float64, ok bool) {
	if front := c.ll.Front(); front != nil {
		if e := front.Value.(*pairEntry); e.key == k {
			c.hits++
			return e.pay, true
		}
	}
	if el, found := c.idx[k]; found {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*pairEntry).pay, true
	}
	c.misses++
	return 0, false
}

// Put stores the payoff for the key, evicting the least recently used entry
// if the cache is full. Re-putting an existing key updates it in place.
func (c *PairCache) Put(k PairKey, pay float64) {
	if el, found := c.idx[k]; found {
		el.Value.(*pairEntry).pay = pay
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.idx, oldest.Value.(*pairEntry).key)
		c.evictions++
	}
	c.idx[k] = c.ll.PushFront(&pairEntry{key: k, pay: pay})
}

// Stats snapshots the counters.
func (c *PairCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
	}
}
