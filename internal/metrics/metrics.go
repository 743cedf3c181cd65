// Package metrics is the engine's observability substrate: low-overhead
// atomic counters, gauges, and fixed-bucket histograms collected in a
// named registry whose snapshots are deterministic (sorted by metric
// name) and free of global state — a snapshot is a plain struct the
// caller owns.
//
// The package exists because the paper's entire evaluation (Tables V-VI,
// Figs. 4-7) is built on separating game-play compute time from
// population-dynamics communication time; internal/mpi uses these
// primitives for per-rank communication accounting and internal/sim for
// per-generation phase timers. Metric values that derive from wall
// clocks follow a naming convention — a `_seconds` or `_nanos` suffix on
// the base name — so Snapshot.Deterministic can strip them, leaving a
// byte-comparable core that two identical seeded runs reproduce exactly.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative deltas decrease the gauge).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DurationBuckets is the default latency histogram layout: exponential
// upper bounds in seconds from one microsecond to ten seconds, spanning
// a point-to-point hop up to a full-recompute generation.
func DurationBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. An
// observation lands in the first bucket whose upper bound is >= the
// value (Prometheus `le` semantics); values above every bound land in
// the implicit +Inf overflow bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram creates a histogram over the given strictly increasing
// upper bounds (copied). It panics on an empty or unsorted layout: a
// histogram whose buckets cannot be trusted corrupts every downstream
// summary.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if !(b[i] > b[i-1]) {
			panic(fmt.Sprintf("metrics: histogram bounds not strictly increasing at %d: %v", i, b))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Name formats a metric identifier from a base name and label pairs
// (key1, value1, key2, value2, ...), with labels sorted by key so the
// identifier — and hence every registry snapshot — is deterministic:
//
//	Name("egd_comm_sent_messages_total", "rank", "2", "tag", "fitness")
//	  == `egd_comm_sent_messages_total{rank="2",tag="fitness"}`
//
// It panics on an odd number of label arguments (a programming error).
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: Name(%q) with odd label list %q", base, labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a named collection of metrics. Lookups are get-or-create
// and safe for concurrent use; the hot path (mutating a metric already
// in hand) is lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. An existing histogram keeps its original
// layout; bounds are only consulted at creation.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value, sorted by name. The
// result is a plain value the caller owns; the registry keeps counting.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Load()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:   name,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	s.sort()
	return s
}

// Snapshot is a point-in-time copy of a registry's metrics, sorted by
// name within each kind.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram's snapshot. Counts are per-bucket
// (not cumulative); Counts[len(Bounds)] is the +Inf overflow bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
}

// wallClockSuffixes mark metrics whose values derive from wall clocks
// and therefore vary between otherwise identical runs. The suffix
// applies to the base name (labels excluded). `_wallclock_total` marks
// counters whose count (not unit) is clock-driven — transport redials,
// for instance, follow process start-up timing rather than the trajectory.
var wallClockSuffixes = []string{"_seconds", "_nanos", "_wallclock_total"}

// isWallClock reports whether a metric identifier names a wall-clock
// quantity by the unit-suffix convention.
func isWallClock(name string) bool {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	for _, suf := range wallClockSuffixes {
		if strings.HasSuffix(base, suf) {
			return true
		}
	}
	return false
}

// Deterministic returns a copy of the snapshot with every wall-clock
// quantity removed: counters and gauges whose base name carries a
// `_seconds`/`_nanos`/`_wallclock_total` suffix are dropped, and wall-clock
// histograms keep their observation Count (how many times the phase
// ran — deterministic) but lose Sum and the bucket distribution (where
// each observation landed depends on timing). Two runs with the same
// seed and configuration produce byte-identical Deterministic
// snapshots; the full snapshot differs only in these stripped fields.
func (s Snapshot) Deterministic() Snapshot {
	var out Snapshot
	for _, c := range s.Counters {
		if !isWallClock(c.Name) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if !isWallClock(g.Name) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if isWallClock(h.Name) {
			h = HistogramValue{Name: h.Name, Count: h.Count, Bounds: h.Bounds}
			h.Counts = nil
		} else {
			h.Bounds = append([]float64(nil), h.Bounds...)
			h.Counts = append([]uint64(nil), h.Counts...)
		}
		out.Histograms = append(out.Histograms, h)
	}
	return out
}
