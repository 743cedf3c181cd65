package sim

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/game"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// This file is the engine-level half of the observability layer: per-rank
// phase timers that split a run's wall time into the paper's compute and
// communication categories (Tables V-VI), the RunMetrics aggregate the
// engines attach to Result, and the export into a metrics.Registry that
// cmd/egdsim serialises. Phase timing is wall-clock derived and therefore
// nondeterministic; everything it measures is *about* the trajectory, never
// an input to it, which is why the //egdlint:allow escapes below are sound.

// Phase names the engine books. Every rank books its own
// population-dynamics step, the meetings (comm) and its share of the games
// (compute); the Nature Agent adds checkpointing.
const (
	// PhaseGamePlay is IPD match execution — the paper's "game dynamics"
	// compute phase: a rank's share of the cells a meeting fills.
	PhaseGamePlay = "game_play"
	// PhaseFitnessComm names point-to-point fitness traffic, which the
	// engine does not book; bench/ reads the name (ROADMAP item 1's shim ledger).
	PhaseFitnessComm = "fitness_comm"
	// PhaseBroadcast is each meeting of the engine — the Gather of
	// new cells and Nature's verdict (the paper's collective-network
	// traffic, less what every rank derives itself) — but the end of the
	// window's, whose Gather carries the snapshot.
	PhaseBroadcast = "broadcast"
	// PhaseReduce names mean-fitness and game-count reductions, which the
	// engine does not book; bench/ reads the name (ROADMAP item 1's shim ledger).
	PhaseReduce = "reduce"
	// PhaseCheckpoint is snapshot persistence on the Nature Agent.
	PhaseCheckpoint = "checkpoint"
	// PhaseNatureStep is the population-dynamics step, on every rank.
	PhaseNatureStep = "nature_step"
)

// PhaseStat is one phase's invocation count and cumulative wall time on
// one rank. Calls is deterministic for a deterministic run; Nanos is
// wall-clock derived and varies between otherwise identical runs.
type PhaseStat struct {
	Phase string `json:"phase"`
	Calls uint64 `json:"calls"`
	Nanos int64  `json:"nanos"`
}

// RankPhaseSnapshot is one rank's per-phase timing, phases sorted by name.
// Cache carries the counters of the rank's payoff table in a run served by
// type, and is nil when the table is keyed by SSet (noisy or mixed play). A
// rank's misses are the cells it played, Nature's hits every scheduled game
// no rank had to play, so hits + misses over the ranks is GamesPlayed.
type RankPhaseSnapshot struct {
	Rank   int              `json:"rank"`
	Phases []PhaseStat      `json:"phases,omitempty"`
	Cache  *game.CacheStats `json:"cache,omitempty"`
}

// phaseTimer accumulates one rank's phase timings. Each rank times only
// its own goroutine, so there is no locking; a nil timer (metrics
// disabled) makes begin/end no-ops.
type phaseTimer struct {
	stats map[string]*phaseAccum
}

type phaseAccum struct {
	calls uint64
	nanos int64
}

func newPhaseTimer() *phaseTimer {
	return &phaseTimer{stats: make(map[string]*phaseAccum)}
}

// begin returns the phase start time, zero when the timer is disabled.
func (t *phaseTimer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now() //egdlint:allow determinism phase timing is observability metadata, never an input to the trajectory
}

// end books the elapsed time since start against the phase.
func (t *phaseTimer) end(phase string, start time.Time) {
	if t == nil {
		return
	}
	a, ok := t.stats[phase]
	if !ok {
		a = &phaseAccum{}
		t.stats[phase] = a
	}
	a.calls++
	a.nanos += time.Since(start).Nanoseconds() //egdlint:allow determinism phase timing is observability metadata, never an input to the trajectory
}

// snapshot captures the timer as a plain value for the given original
// rank, phases in sorted order.
func (t *phaseTimer) snapshot(rank int) RankPhaseSnapshot {
	s := RankPhaseSnapshot{Rank: rank}
	names := make([]string, 0, len(t.stats))
	for name := range t.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := t.stats[name]
		s.Phases = append(s.Phases, PhaseStat{Phase: name, Calls: a.calls, Nanos: a.nanos})
	}
	return s
}

// RunMetrics is the observability aggregate a run attaches to its Result
// when Config.Metrics is set: every rank's phase timing and communication
// accounting.
type RunMetrics struct {
	// Phases holds per-rank phase timings, ordered by rank.
	Phases []RankPhaseSnapshot `json:"phases,omitempty"`
	// Comm holds per-rank communication accounting, ordered by rank.
	Comm []mpi.RankCommSnapshot `json:"comm,omitempty"`
	// Transport holds the wire-transport counters of a networked run
	// (RunWorker): this process's view of the wire — frames, bytes, failed
	// dials while wiring, and decode errors. Nil on in-process runs.
	Transport *mpi.TransportSnapshot `json:"transport,omitempty"`
}

// PhaseTotals aggregates phase timings across ranks, sorted by phase name.
func (m *RunMetrics) PhaseTotals() []PhaseStat {
	acc := map[string]*PhaseStat{}
	for _, r := range m.Phases {
		for _, p := range r.Phases {
			t, ok := acc[p.Phase]
			if !ok {
				t = &PhaseStat{Phase: p.Phase}
				acc[p.Phase] = t
			}
			t.Calls += p.Calls
			t.Nanos += p.Nanos
		}
	}
	out := make([]PhaseStat, 0, len(acc))
	names := make([]string, 0, len(acc))
	for name := range acc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, *acc[name])
	}
	return out
}

// ComputeCommSplit classifies the aggregated phase time into the paper's
// Table V categories: compute (game play and the Nature step), comm (the
// meetings), and other (checkpoint I/O).
func (m *RunMetrics) ComputeCommSplit() (compute, comm, other time.Duration) {
	for _, p := range m.PhaseTotals() {
		d := time.Duration(p.Nanos)
		switch p.Phase {
		case PhaseGamePlay, PhaseNatureStep:
			compute += d
		case PhaseBroadcast:
			comm += d
		default:
			other += d
		}
	}
	return compute, comm, other
}

// MetricsRegistry exports the run's metrics into a registry keyed by the
// egd_* naming scheme documented in docs/OBSERVABILITY.md. Nil when the
// run did not collect metrics. Wall-clock derived series carry the _nanos
// (or _wallclock_total) suffix so Snapshot.Deterministic can strip them;
// everything else is bit-reproducible between same-seed runs.
func (r *Result) MetricsRegistry() *metrics.Registry {
	if r.Metrics == nil {
		return nil
	}
	reg := metrics.NewRegistry()
	reg.Counter("egd_games_played_total").Add(r.Counters.GamesPlayed)
	reg.Counter("egd_pc_events_total").Add(r.Counters.PCEvents)
	reg.Counter("egd_adoptions_total").Add(r.Counters.Adoptions)
	reg.Counter("egd_mutations_total").Add(r.Counters.Mutations)
	reg.Gauge("egd_ranks").Set(int64(r.Ranks))
	reg.Counter("egd_restarts_total").Add(uint64(r.Restarts))
	reg.Gauge("egd_run_elapsed_nanos").Set(r.Elapsed.Nanoseconds())

	for _, rs := range r.Metrics.Phases {
		rank := strconv.Itoa(rs.Rank)
		for _, p := range rs.Phases {
			reg.Counter(metrics.Name("egd_phase_calls_total", "phase", p.Phase, "rank", rank)).Add(p.Calls)
			reg.Gauge(metrics.Name("egd_phase_nanos", "phase", p.Phase, "rank", rank)).Set(p.Nanos)
		}
		if cs := rs.Cache; cs != nil {
			reg.Counter(metrics.Name("egd_payoff_cache_hits_total", "rank", rank)).Add(cs.Hits)
			reg.Counter(metrics.Name("egd_payoff_cache_misses_total", "rank", rank)).Add(cs.Misses)
			reg.Gauge(metrics.Name("egd_payoff_cache_entries", "rank", rank)).Set(int64(cs.Entries))
		}
	}
	for _, cs := range r.Metrics.Comm {
		rank := strconv.Itoa(cs.Rank)
		for _, tt := range cs.SentByTag {
			tag := mpi.TagLabel(tt.Tag)
			reg.Counter(metrics.Name("egd_comm_sent_messages_total", "rank", rank, "tag", tag)).Add(tt.Msgs)
			reg.Counter(metrics.Name("egd_comm_sent_bytes_total", "rank", rank, "tag", tag)).Add(tt.Bytes)
		}
		for _, tt := range cs.RecvByTag {
			tag := mpi.TagLabel(tt.Tag)
			reg.Counter(metrics.Name("egd_comm_recv_messages_total", "rank", rank, "tag", tag)).Add(tt.Msgs)
			reg.Counter(metrics.Name("egd_comm_recv_bytes_total", "rank", rank, "tag", tag)).Add(tt.Bytes)
		}
		for _, co := range cs.Collectives {
			reg.Counter(metrics.Name("egd_comm_collective_calls_total", "op", co.Op, "rank", rank)).Add(co.Calls)
			reg.Gauge(metrics.Name("egd_comm_collective_nanos", "op", co.Op, "rank", rank)).Set(co.Nanos)
		}
	}
	if ts := r.Metrics.Transport; ts != nil {
		// Wire traffic depends on real-time behaviour (when the mesh wires,
		// how ranks interleave), so the transport series carry the
		// _wallclock_total marker and are stripped from deterministic
		// snapshots.
		for _, c := range []struct {
			name string
			v    uint64
		}{
			{"frames_sent", ts.FramesSent},
			{"frames_recv", ts.FramesRecv},
			{"bytes_sent", ts.BytesSent},
			{"bytes_recv", ts.BytesRecv},
			{"redials", ts.Redials},
			{"decode_errs", ts.DecodeErrs},
		} {
			reg.Counter("egd_transport_" + c.name + "_wallclock_total").Add(c.v)
		}
	}
	return reg
}
