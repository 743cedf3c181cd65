package mpi

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// This file is the runtime's per-rank communication accounting: which
// tags each rank sent and received (messages and bytes), how often each
// collective ran and how long it took. It is the measurement substrate for
// the
// paper's compute-vs-communication analysis (Tables V-VI): how much
// traffic a run generated, who generated it, on which channel, and when.
//
// Accounting is off by default and enabled with World.EnableMetrics;
// disabled, every hot path pays a single nil check.

// RankMetrics is one rank's communication accounting. All
// methods are safe for concurrent use; snapshots are plain values.
type RankMetrics struct {
	rank int

	mu   sync.Mutex // guards the tag/op maps (not the counters within)
	sent map[int]*tagTraffic
	recv map[int]*tagTraffic
	coll map[string]*collStats
}

// tagTraffic counts one (rank, direction, tag) channel.
type tagTraffic struct {
	msgs  metrics.Counter
	bytes metrics.Counter
}

// collStats counts one (rank, collective op) pair: invocations and
// cumulative wall time inside the op.
type collStats struct {
	calls metrics.Counter
	nanos atomic.Int64
}

func newRankMetrics(rank int) *RankMetrics {
	return &RankMetrics{
		rank: rank,
		sent: make(map[int]*tagTraffic),
		recv: make(map[int]*tagTraffic),
		coll: make(map[string]*collStats),
	}
}

func (m *RankMetrics) sentTag(tag int) *tagTraffic { return getTraffic(&m.mu, m.sent, tag) }
func (m *RankMetrics) recvTag(tag int) *tagTraffic { return getTraffic(&m.mu, m.recv, tag) }

func getTraffic(mu *sync.Mutex, byTag map[int]*tagTraffic, tag int) *tagTraffic {
	mu.Lock()
	defer mu.Unlock()
	t, ok := byTag[tag]
	if !ok {
		t = &tagTraffic{}
		byTag[tag] = t
	}
	return t
}

func (m *RankMetrics) addSent(tag int, bytes uint64) {
	t := m.sentTag(tag)
	t.msgs.Inc()
	t.bytes.Add(bytes)
}

func (m *RankMetrics) addRecv(tag int, bytes uint64) {
	t := m.recvTag(tag)
	t.msgs.Inc()
	t.bytes.Add(bytes)
}

func (m *RankMetrics) collOp(op string) *collStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	cs, ok := m.coll[op]
	if !ok {
		cs = &collStats{}
		m.coll[op] = cs
	}
	return cs
}

// TagTraffic is one tag's message and byte totals in one direction.
type TagTraffic struct {
	Tag   int    `json:"tag"`
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
}

// CollectiveStat is one collective operation's invocation count and
// cumulative wall time on one rank. Nanos is wall-clock derived and
// varies between otherwise identical runs; Calls is deterministic.
type CollectiveStat struct {
	Op    string `json:"op"`
	Calls uint64 `json:"calls"`
	Nanos int64  `json:"nanos"`
}

// RankCommSnapshot is one rank's communication accounting at a point in
// time: a plain value, safe to serialise and compare. Everything but
// the collective Nanos fields is deterministic for a deterministic
// program.
type RankCommSnapshot struct {
	// Rank is the rank.
	Rank int `json:"rank"`
	// Totals across all tags.
	SentMsgs  uint64 `json:"sent_msgs"`
	SentBytes uint64 `json:"sent_bytes"`
	RecvMsgs  uint64 `json:"recv_msgs"`
	RecvBytes uint64 `json:"recv_bytes"`
	// Per-tag breakdowns, sorted by tag (user tags first, then the
	// collective-protocol tags; see TagLabel).
	SentByTag []TagTraffic `json:"sent_by_tag,omitempty"`
	RecvByTag []TagTraffic `json:"recv_by_tag,omitempty"`
	// Collectives, sorted by op name.
	Collectives []CollectiveStat `json:"collectives,omitempty"`
}

// snapshot captures the rank's accounting.
func (m *RankMetrics) snapshot() RankCommSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := RankCommSnapshot{Rank: m.rank}
	s.SentByTag, s.SentMsgs, s.SentBytes = trafficSlice(m.sent)
	s.RecvByTag, s.RecvMsgs, s.RecvBytes = trafficSlice(m.recv)
	for op, cs := range m.coll {
		s.Collectives = append(s.Collectives, CollectiveStat{Op: op, Calls: cs.calls.Load(), Nanos: cs.nanos.Load()})
	}
	sort.Slice(s.Collectives, func(i, j int) bool { return s.Collectives[i].Op < s.Collectives[j].Op })
	return s
}

func trafficSlice(byTag map[int]*tagTraffic) (out []TagTraffic, msgs, bytes uint64) {
	for tag, t := range byTag {
		tt := TagTraffic{Tag: tag, Msgs: t.msgs.Load(), Bytes: t.bytes.Load()}
		msgs += tt.Msgs
		bytes += tt.Bytes
		out = append(out, tt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out, msgs, bytes
}

// TagLabel names a tag for human-readable and exported output: the
// collective-protocol tags get symbolic names, user tags their decimal
// value.
func TagLabel(tag int) string {
	switch tag {
	case tagBcast:
		return "coll_bcast"
	case tagReduce:
		return "coll_reduce"
	case tagGather:
		return "coll_gather"
	case tagBarrierUp:
		return "coll_barrier_up"
	case tagBarrierDown:
		return "coll_barrier_down"
	}
	return strconv.Itoa(tag)
}

// EnableMetrics switches on per-rank communication accounting. Must be
// called before Run; it is idempotent. The disabled
// runtime pays one nil check per operation; enabled, each send/receive
// additionally costs a map lookup under a per-rank mutex and two atomic
// adds.
func (w *World) EnableMetrics() {
	if w.commMetrics != nil {
		return
	}
	cm := make([]*RankMetrics, w.size)
	for i := range cm {
		cm[i] = newRankMetrics(i)
	}
	w.commMetrics = cm
}

// CommMetricsSnapshot captures every rank's communication accounting,
// ordered by rank. Nil unless EnableMetrics was called.
func (w *World) CommMetricsSnapshot() []RankCommSnapshot {
	if w.commMetrics == nil {
		return nil
	}
	out := make([]RankCommSnapshot, w.size)
	for i, m := range w.commMetrics {
		out[i] = m.snapshot()
	}
	return out
}

// accountSend books one delivered message on the sender's per-tag metrics
// when enabled.
func (w *World) accountSend(src, tag int, nb uint64) {
	if w.commMetrics != nil {
		w.commMetrics[src].addSent(tag, nb)
	}
}

// accountRecv books one received message on the receiver's per-tag
// metrics when enabled.
func (c *Comm) accountRecv(e envelope) {
	cm := c.world.commMetrics
	if cm == nil {
		return
	}
	// The error is the sender's: send refuses a payload kind the runtime does not carry.
	nb, _ := payloadBytes(e.payload)
	cm[c.rank].addRecv(e.tag, nb)
}

// collTimer starts timing one collective invocation; the returned stop
// function books the elapsed wall time. Nil when metrics are disabled —
// callers guard the defer, keeping the disabled path allocation-free.
func (c *Comm) collTimer(op string) func() {
	cm := c.world.commMetrics
	if cm == nil {
		return nil
	}
	cs := cm[c.rank].collOp(op)
	cs.calls.Inc()
	start := time.Now()
	return func() { cs.nanos.Add(time.Since(start).Nanoseconds()) }
}
