package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// verdict is what only the Nature Agent holds at a meeting, and the whole of
// its broadcast there. Every rank derives the generation's plan — who is
// compared, who mutates into what, whether the series is sampled — from
// (Seed, gen) with natureDecision and mutantStrategy, and resolves the
// adoption from its own table (rank.go), so no selection, no fitness and no
// strategy crosses the wire; what a worker cannot know is whether the
// control hook asked for a stop and the payoff-table cells the other workers
// played.
type verdict struct {
	// Gen is the generation of the meeting the verdict closes. A worker
	// refuses one that names another generation.
	Gen int
	// Stop tells workers the run is ending on a control-hook request
	// (pause/cancel): nothing of Gen is applied, a Barrier follows — so
	// Nature outlives every worker's last send to it — and every rank exits.
	Stop bool
	// Cells are the meeting's new cells, in its list's order.
	Cells []float64
}

// encode is the verdict's message: flag Stop (bit 0), fields Gen, the cell
// count and an unused zero, then the cells.
func (v verdict) encode() []byte {
	var flags byte
	if v.Stop {
		flags = 1
	}
	b := encodeMessage(msgVerdict, flags, [3]int{v.Gen, len(v.Cells)})
	b = slices.Grow(b, 8*len(v.Cells))
	for _, c := range v.Cells {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}

// decodeVerdict validates a received verdict against the generation the
// receiver stands at and the cells its meeting misses — none aboard a stop.
func decodeVerdict(cfg *Config, payload any, gen, cells int) (verdict, error) {
	v, err := decodeMessage(cfg, payload, msgVerdict, 0, func(flags byte, f [3]int, _ []strategy.Strategy, body []byte) verdict {
		v := verdict{Gen: f[0], Stop: flags&1 != 0}
		if len(body) >= 8 {
			v.Cells = make([]float64, 0, len(body)/8)
		}
		for ; len(body) >= 8; body = body[8:] {
			v.Cells = append(v.Cells, math.Float64frombits(binary.LittleEndian.Uint64(body)))
		}
		return v
	})
	if v.Stop {
		cells = 0
	}
	switch {
	case err != nil:
	case v.Gen != gen:
		err = fmt.Errorf("sim: verdict for generation %d received at generation %d", v.Gen, gen)
	case len(v.Cells) != cells:
		err = fmt.Errorf("sim: verdict with %d cells received at generation %d, which misses %d", len(v.Cells), gen, cells)
	}
	return v, err
}

// resume is the Nature Agent's post-eviction broadcast on the shrunk
// communicator: the authoritative state every survivor replaces its own
// with. Workers may be behind (a dead mid-tree rank broke a broadcast relay)
// or ahead (buffered packets outran the failure) of Nature's position; a
// full-state resume makes the skew irrelevant.
type resume struct {
	// Gen is the generation the loop resumes at, from its top.
	Gen int
	// Strategies is the global strategy view at the top of generation Gen.
	Strategies []strategy.Strategy
}

// encode is the resume's message: no flags, fields Gen and two unused zeros,
// then every SSet's strategy in order.
func (r resume) encode() []byte {
	return encodeMessage(msgResume, 0, [3]int{r.Gen}, r.Strategies...)
}

// decodeResume validates a received resume against the run's Config: exactly
// one strategy of the run's memory depth per SSet.
func decodeResume(cfg *Config, payload any) (resume, error) {
	return decodeMessage(cfg, payload, msgResume, cfg.NumSSets, func(_ byte, f [3]int, sts []strategy.Strategy, _ []byte) resume {
		return resume{Gen: f[0], Strategies: sts}
	})
}

// rankReport is what a worker ships to Nature at the end of the window: its
// view of the run for Nature's cross-check and, when Config.Metrics is set,
// its phase timings and payoff-table counters.
type rankReport struct {
	RankPhaseSnapshot
	// Counters is what the worker counted since the last (re)synchronisation
	// and Live how many types its population holds: a drifted view changes
	// either.
	Counters *Counters `json:"counters,omitempty"`
	Live     int       `json:"live,omitempty"`
}

// encode is the report as JSON, space-padded (JSON ignores trailing white
// space) to the length it has with 19-digit Nanos: the comm byte counters
// must not depend on wall-clock digits.
func (rep rankReport) encode() []byte {
	b, _ := json.Marshal(rep) // plain counters: cannot fail
	for _, p := range rep.Phases {
		b = append(b, "                   "[len(strconv.FormatInt(p.Nanos, 10)):]...)
	}
	return b
}

// decodeReports reads the workers' reports out of a Gather at Nature, with
// the run's phase block: Nature's own snapshot self, then the workers' by
// dense rank — survivors in ascending original rank (mpi.World.Shrink) — so
// Phases is already ordered by Rank.
func decodeReports(self RankPhaseSnapshot, parts []any) (*RunMetrics, []rankReport, error) {
	rm, reps := &RunMetrics{Phases: []RankPhaseSnapshot{self}}, make([]rankReport, len(parts)-1)
	for i, part := range parts[1:] {
		b, _ := part.([]byte)
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			return nil, nil, fmt.Errorf("sim: report of rank %d: %w", 1+i, err)
		}
		rm.Phases = append(rm.Phases, reps[i].RankPhaseSnapshot)
	}
	return rm, reps, nil
}

// skew is the test seam of the end-of-window cross-check: the games the
// worker on c reports beyond those it played — one on the rank
// Config.skewRank names, none elsewhere (a worker's rank is never 0).
func skew(cfg *Config, c *mpi.Comm) uint64 {
	if c.OrigRank() == cfg.skewRank {
		return 1
	}
	return 0
}

// The parallel engine's two broadcasts travel as bytes the engine lays out
// itself, in process and over a transport alike, so the bytes mpi counts are
// the message. One layout serves both: the kind — a message arriving where
// another was due is refused, not misread — a flags byte, three
// little-endian uint32 fields (generation numbers and counts: a run is far
// shorter than 2^32 generations), then zero or more strategies in the
// checkpoint stream's form (checkpoint.AppendStrategy) or — a verdict only —
// cells as little-endian float64 bits.
const (
	msgVerdict byte = 1 + iota
	msgResume
)

const msgHeadLen = 2 + 3*4

// msgNames names each kind of message, for errors.
var msgNames = [...]string{msgVerdict: "verdict", msgResume: "resume"}

// encodeMessage lays one message out.
func encodeMessage(kind, flags byte, fields [3]int, sts ...strategy.Strategy) []byte {
	b := append(make([]byte, 0, msgHeadLen), kind, flags)
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint32(b, uint32(f))
	}
	for _, st := range sts {
		b = checkpoint.AppendStrategy(b, st)
	}
	return b
}

// decodeMessage takes a received payload apart and has build make the typed
// message of it from the flags, the fields, the strategies and the body (the
// bytes behind the head). The payload must be a message of the wanted kind,
// n strategies of the run's memory depth must follow the fields, and the whole
// must be, byte for byte, the encoding of what was built from it: no
// trailing bytes, no unknown flag bit, no value in an unused field, no
// second spelling of a strategy.
func decodeMessage[T interface{ encode() []byte }](cfg *Config, payload any, kind byte, n int, build func(flags byte, f [3]int, sts []strategy.Strategy, tail []byte) T) (msg T, err error) {
	b, ok := payload.([]byte)
	if !ok || len(b) < msgHeadLen || b[0] != kind {
		return msg, fmt.Errorf("sim: expected a %s message, received %T %.14x", msgNames[kind], payload, b)
	}
	var f [3]int
	for i := range f {
		f[i] = int(binary.LittleEndian.Uint32(b[2+4*i:]))
	}
	var sts []strategy.Strategy
	if n > 0 { // a verdict has no strategy: no reader for it
		for rest := bytes.NewReader(b[msgHeadLen:]); len(sts) < n; {
			st, err := checkpoint.ReadStrategy(rest, strategy.NewSpace(cfg.Memory))
			if err != nil {
				return msg, fmt.Errorf("sim: %s strategy %d: %w", msgNames[kind], len(sts), err)
			}
			sts = append(sts, st)
		}
	}
	msg = build(b[1], f, sts, b[msgHeadLen:])
	if re := msg.encode(); !bytes.Equal(b, re) {
		return msg, fmt.Errorf("sim: %s of %d bytes %.14x is not the %d-byte encoding %.14x of its content", msgNames[kind], len(b), b, len(re), re)
	}
	return msg, nil
}

// RunParallel executes the simulation on a world of `ranks` goroutine
// ranks: rank 0 is the Nature Agent, ranks 1..ranks-1 play the games — the
// paper's Blue Gene mapping, with every update of the Nature Agent known to
// every rank. Each rank keeps the same payoff table and runs the generation
// itself; the games a generation misses are block-distributed over the
// workers, an SSet's row across several of them when workers outnumber SSets
// (the paper's agents-within-SSet level), and Gathered and broadcast back
// (rank.go). The trajectory is identical to RunSequential with the same
// Config for every rank count.
//
// ranks must be at least 2; workers may not outnumber the games of one
// generation, S×(S-1).
func RunParallel(cfg Config, ranks int) (*Result, error) {
	if err := checkParallel(&cfg, ranks); err != nil {
		return nil, err
	}
	world := mpi.NewWorld(ranks)
	return runWorld(cfg, world, world.Run)
}

// checkParallel validates cfg and the rank count for the parallel engine.
func checkParallel(cfg *Config, ranks int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ranks < 2 {
		return fmt.Errorf("sim: parallel engine needs >= 2 ranks (Nature + workers), got %d", ranks)
	}
	if games := cfg.NumSSets * (cfg.NumSSets - 1); ranks-1 > games {
		return fmt.Errorf("sim: %d workers exceed %d games per generation", ranks-1, games)
	}
	return nil
}

// runWorld is the one world set-up behind RunParallel and RunWorker: it
// installs the Config's world options, has launch run a parRank on each of
// the ranks the world hosts (all of them in-process, one per process over a
// transport), and completes the Nature rank's Result. It returns (nil, nil)
// when this process hosted only a worker.
func runWorld(cfg Config, world *mpi.World, launch func(body func(*mpi.Comm) error) error) (*Result, error) {
	if cfg.Metrics {
		world.EnableMetrics()
	}
	if cfg.FaultPlan != nil {
		world.InstallFaultPlan(cfg.FaultPlan)
	}
	if cfg.RecvTimeout > 0 {
		world.SetRecvTimeout(cfg.RecvTimeout)
	}
	if cfg.Evict {
		world.EnableEviction(cfg.HeartbeatEvery, cfg.HeartbeatMisses)
	}
	var result *Result
	var start time.Time
	err := launch(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			start = time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
		}
		r := newParRank(&cfg, c)
		err := runRank(&cfg, c, r)
		if c.Rank() != 0 && errors.Is(err, ErrStopped) {
			return nil // a control stop told by Nature is a clean exit: the run's one error is Nature's
		}
		if err != nil || c.Rank() != 0 {
			return err
		}
		result = r.res
		result.Final = r.pop.Snapshot()
		return nil
	})
	if err != nil || result == nil {
		return nil, err
	}
	result.Elapsed = time.Since(start) //egdlint:allow determinism elapsed-time metadata, not part of the trajectory
	result.Evictions = len(world.Evictions())
	result.Ranks = world.Size() - result.Evictions
	if cfg.Metrics && result.Metrics != nil {
		// Comm and transport accounting is this process's view: every rank
		// in-process, the hosted rank's side of the wire when networked.
		result.Metrics.Comm = world.CommMetricsSnapshot()
		result.Metrics.Transport = world.TransportStats()
		if cfg.EventLog != nil {
			msgs, nbytes, colls := mpi.CommTotals(result.Metrics.Comm)
			cfg.EventLog.Append(trace.Event{Kind: trace.EventMetrics, Generation: cfg.StartGeneration + cfg.Generations, Rank: -1,
				Detail: fmt.Sprintf("games=%d p2p_msgs=%d p2p_bytes=%d collectives=%d", result.Counters.GamesPlayed, msgs, nbytes, colls)})
		}
	}
	return result, nil
}

// runRank drives one rank to completion: run a step; on a failure live
// eviction can absorb, recover onto the shrunk communicator and run the
// step the recovery left the rank at. The same loop serves the generations
// and finalization, so a resume can move a rank across that boundary in
// either direction.
func runRank(cfg *Config, c *mpi.Comm, r *parRank) error {
	traced := 0 // evictions already in the event log
	for {
		done, err := r.step()
		if err == nil {
			if done {
				return nil
			}
			continue
		}
		if c, err = recoverLive(cfg, c, r, &traced, err); err != nil {
			return err
		}
	}
}

// evictable reports whether an engine error is a rank failure that live
// eviction can recover from: a revoked communicator or any error carrying a
// *RankFailedError (poisoned sends, abort causes). The caller's own faults
// (an injected kill firing on this rank, say) are not evictable.
func evictable(err error) bool {
	if errors.Is(err, mpi.ErrRevoked) {
		return true
	}
	var rf *mpi.RankFailedError
	return errors.As(err, &rf)
}

// recoverLive is the survivor-side eviction protocol, identical on every
// rank — which is what keeps the meetings aligned across divergent failure
// interleavings: agree on the surviving set, shrink onto it, resync the
// rank's state. Each loop iteration is one agreement epoch; a failure
// landing mid-recovery (a failed Shrink or resume broadcast) starts
// another. It returns the communicator to continue on, or cause when live
// eviction cannot proceed — eviction is off, the failure is this rank's
// own, the Nature rank is among the dead (no one can re-drive the
// schedule), or the survivors are fewer than Config.MinRanks — and the
// restart supervisor must take over.
func recoverLive(cfg *Config, c *mpi.Comm, r *parRank, traced *int, cause error) (*mpi.Comm, error) {
	if !cfg.Evict {
		return nil, cause
	}
	logEvent := func(kind trace.EventKind, rank int, detail string) {
		if cfg.EventLog != nil {
			cfg.EventLog.Append(trace.Event{Kind: kind, Generation: r.gen, Rank: rank, Detail: detail})
		}
	}
	for cur := cause; evictable(cur); {
		surv, err := c.Agree()
		if err != nil {
			break
		}
		if len(surv) == 0 || surv[0] != 0 {
			// The lowest survivor records the decision once for the trace.
			if len(surv) > 0 && c.OrigRank() == surv[0] {
				logEvent(trace.EventEvictionFailed, 0, "nature rank failed; falling back to checkpoint restart")
			}
			break
		}
		if c.Rank() == 0 {
			evs := c.Evictions()
			for _, e := range evs[*traced:] {
				logEvent(trace.EventEviction, e.Rank, e.Err.Error())
			}
			*traced = len(evs)
		}
		// The engine's own floor is Nature plus one worker.
		if floor := max(cfg.MinRanks, 2); len(surv) < floor {
			if c.Rank() == 0 {
				logEvent(trace.EventEvictionFailed, -1,
					fmt.Sprintf("%d survivors below floor %d; falling back to checkpoint restart", len(surv), floor))
			}
			break
		}
		nc, err := c.Shrink(surv)
		if err != nil {
			cur = err
			continue
		}
		if err := r.resync(nc); err != nil {
			c, cur = nc, err
			continue
		}
		return nc, nil
	}
	return nil, cause
}
