package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Point-to-point tags used by the parallel engine.
const (
	tagFitness = 1 // owner -> Nature: payoff segment of a selected SSet
	tagRows    = 2 // owner -> Nature: final payoff block
)

// verdict is what only the Nature Agent holds at a rendezvous, and the whole
// of its broadcast there. Every rank derives the generation's plan — who is
// compared, who mutates into what, whether the series is sampled — from
// (Seed, gen) with natureDecision and mutantStrategy, so no selection and no
// strategy crosses the wire; what a worker cannot know is whether the
// learner adopted (that takes both fitnesses), whether the control hook
// asked for a stop and, in a run served by type, the payoff-table cells the
// other workers played (typed.go).
type verdict struct {
	// Gen is the rendezvous generation the verdict closes. A worker refuses
	// one that names another generation.
	Gen int
	// Adopted reports that Gen's learner took the teacher's strategy.
	Adopted bool
	// Stop tells workers the run is ending on a control-hook request
	// (pause/cancel): nothing of Gen is applied, a Barrier follows — so
	// Nature outlives every worker's last send to it — and every rank exits.
	Stop bool
	// Cells are a typed meeting's new cells, in its list's order.
	Cells []float64
}

// encode is the verdict's message: flags Adopted (bit 0) and Stop (bit 1),
// fields Gen, the cell count and an unused zero, then the cells.
func (v verdict) encode() []byte {
	var flags byte
	if v.Adopted {
		flags |= 1
	}
	if v.Stop {
		flags |= 2
	}
	b := encodeMessage(msgVerdict, flags, [3]int{v.Gen, len(v.Cells)})
	for _, c := range v.Cells {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}

// decodeVerdict validates a received verdict against the generation the
// receiver stands at and that generation's plan: only a comparison can end
// in an adoption, and only the cells a meeting misses travel — none aboard
// a stop.
func decodeVerdict(cfg *Config, payload any, gen int, pc bool, cells int) (verdict, error) {
	v, err := decodeMessage(cfg, payload, msgVerdict, 0, func(flags byte, f [3]int, _ []strategy.Strategy, body []byte) verdict {
		v := verdict{Gen: f[0], Adopted: flags&1 != 0, Stop: flags&2 != 0}
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
	case v.Adopted && (v.Stop || !pc):
		err = fmt.Errorf("sim: verdict reports an adoption in generation %d, which has no comparison to resolve", gen)
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
	// Gen is the generation the loop resumes at; Replay is the generation
	// whose random streams the full payoff recompute draws from
	// (min(Gen, last generation) — a finalization-phase resume replays the
	// final generation's streams).
	Gen, Replay int
	// Strategies is the global strategy view at the top of generation Gen.
	Strategies []strategy.Strategy
}

// encode is the resume's message: no flags, fields Gen, Replay and an unused
// zero, then every SSet's strategy in order.
func (r resume) encode() []byte {
	return encodeMessage(msgResume, 0, [3]int{r.Gen, r.Replay}, r.Strategies...)
}

// decodeResume validates a received resume against the run's Config: exactly
// one strategy of the run's memory depth per SSet.
func decodeResume(cfg *Config, payload any) (resume, error) {
	return decodeMessage(cfg, payload, msgResume, cfg.NumSSets, func(_ byte, f [3]int, sts []strategy.Strategy, _ []byte) resume {
		return resume{Gen: f[0], Replay: f[1], Strategies: sts}
	})
}

// rankReport is what a worker ships to Nature at the end of the window: its
// phase timings and payoff-table counters when Config.Metrics is set and,
// in a typed run, its view of the run for Nature's cross-check.
type rankReport struct {
	RankPhaseSnapshot
	// Counters is what the worker counted since the last (re)synchronisation
	// and Live how many types its population holds: a drifted view changes
	// either. Both are unset in the fitness protocol, whose report is the
	// bare snapshot.
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
// ranks: rank 0 is the Nature Agent, ranks 1..ranks-1 own block-distributed
// game pairs — the paper's Blue Gene mapping, including the agents-within-
// SSet split when workers outnumber SSets. The trajectory is identical to
// RunSequential with the same Config for every rank count.
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
// installs the Config's world options, has launch run the rank roles on the
// ranks the world hosts (all of them in-process, one per process over a
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
	typed := servedByType(&cfg)
	err := launch(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			start = time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
		}
		var role rankRole
		var n *nature // Nature's
		switch {
		case typed:
			t := newTypedRank(&cfg, c)
			role, n = t, t.nature
		case c.Rank() == 0:
			nr := newNatureRank(&cfg, c)
			role, n = nr, nr.nature
		default:
			role = newWorkerRank(&cfg, c)
		}
		err := runRank(&cfg, c, role)
		if c.Rank() != 0 && errors.Is(err, ErrStopped) {
			return nil // a control stop told by Nature is a clean exit: the run's one error is Nature's
		}
		if err != nil || c.Rank() != 0 {
			return err
		}
		result = n.res
		result.Final = n.pop.Snapshot()
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

// rankRole is one side of the parallel engine's protocol — the Nature Agent
// or a worker — as the recovery driver sees it.
type rankRole interface {
	// step runs the rank's next unit of work on its current communicator —
	// one generation while any remain, then finalization — and reports
	// whether the run is complete.
	step() (done bool, err error)
	// position is the generation the rank stands at, for the event trace.
	position() int
	// resync re-establishes the shared state on a freshly shrunk
	// communicator: Nature rolls back to its snapshot and broadcasts it, a
	// worker receives and adopts it. On success the role continues on nc.
	resync(nc *mpi.Comm) error
}

// runRank drives one rank to completion: run a step; on a failure live
// eviction can absorb, recover onto the shrunk communicator and run the
// step the recovery left the rank at. The same loop serves the generations
// and finalization, so a resume can move a rank across that boundary in
// either direction.
func runRank(cfg *Config, c *mpi.Comm, r rankRole) error {
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
// rank — which is what keeps the rendezvous aligned across divergent
// failure interleavings: agree on the surviving set, shrink onto it, resync
// the role's state. Each loop iteration is one agreement epoch; a failure
// landing mid-recovery (a failed Shrink or resume broadcast) starts
// another. It returns the communicator to continue on, or cause when live
// eviction cannot proceed — eviction is off, the failure is this rank's
// own, the Nature rank is among the dead (no one can re-drive the
// schedule), or the survivors are fewer than Config.MinRanks — and the
// restart supervisor must take over.
func recoverLive(cfg *Config, c *mpi.Comm, r rankRole, traced *int, cause error) (*mpi.Comm, error) {
	if !cfg.Evict {
		return nil, cause
	}
	logEvent := func(kind trace.EventKind, rank int, detail string) {
		if cfg.EventLog != nil {
			cfg.EventLog.Append(trace.Event{Kind: kind, Generation: r.position(), Rank: rank, Detail: detail})
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

// natureRank is rank 0: the paper's Nature Agent driving the shared
// generation over the wire. It is its own fitness source — it owns no game
// pairs, so refresh only tallies the schedule, the selected fitness values
// come back point-to-point, and the verdict goes out by broadcast.
//
// With cfg.Evict, a detected rank failure is recovered live at the current
// generation boundary: Nature agrees with the survivors on the new rank
// set, shrinks onto it, rolls its state back to the top of the interrupted
// generation, and rebroadcasts that state so the survivors re-shard the
// dead rank's game pairs and replay the generation from its
// generation-keyed random streams — bit-identical to a fault-free run for
// deterministic games.
type natureRank struct {
	*nature
	c *mpi.Comm
	// pendingFull marks that the workers' next refresh replays every owned
	// pair (their payoff blocks were re-sharded by an eviction); crossCheck
	// counts the games scheduled since the last world (re)synchronisation,
	// mirroring the workers' local tallies, which reset on resume.
	pendingFull bool
	crossCheck  uint64
	// segs[i] is rowSegments of SSet i over c's workers.
	segs [][]rowSegment
}

func newNatureRank(cfg *Config, c *mpi.Comm) *natureRank {
	n := &natureRank{nature: newNature(cfg)}
	n.src = n
	n.join(c)
	return n
}

// join makes c Nature's communicator and lays the rows out over its workers.
func (n *natureRank) join(c *mpi.Comm) {
	n.c, n.segs = c, make([][]rowSegment, n.cfg.NumSSets)
	for i := range n.segs {
		n.segs[i] = rowSegments(n.cfg.NumSSets, c.Size()-1, i)
	}
}

func (n *natureRank) position() int { return n.gen }

func (n *natureRank) step() (bool, error) {
	if n.cfg.Evict {
		n.takeSnap() // at n.gen == n.end this is the finalization resume point
	}
	if n.gen < n.end {
		return false, n.generation()
	}
	return true, n.finalize()
}

// resync rolls Nature back to the snapshot and rebroadcasts it as the
// authoritative state.
func (n *natureRank) resync(nc *mpi.Comm) error {
	n.pop.replaceAll(n.snap.strategies)
	n.pop.clearDirty()
	n.rollback()
	n.pendingFull = true
	n.crossCheck = 0
	if _, err := nc.Bcast(0, resume{Gen: n.gen, Replay: min(n.gen, n.end-1), Strategies: n.snap.strategies}.encode()); err != nil {
		return err
	}
	n.join(nc)
	return nil
}

// refresh tallies the games the workers are scheduling this generation —
// they evaluate the replay predicate over the same dirty marks — without
// playing any. A post-eviction replay recomputes every pair.
func (n *natureRank) refresh(int) (uint64, error) {
	scheduled := scheduledGames(n.pop.Size(), len(n.pop.changed), n.pendingFull || n.cfg.FullRecompute)
	n.pendingFull = false
	n.crossCheck += scheduled
	return scheduled, nil
}

// verdict broadcasts v to all ranks (collective network). A stop is told at
// the workers' next rendezvous — between rendezvous they listen to nobody —
// and is followed by a Barrier, so Nature outlives every worker's last send
// to it: the workers may be mid-interval, with segments for that rendezvous
// still to ship.
func (n *natureRank) verdict(v verdict) error {
	if v.Stop {
		for v.Gen < n.end && !rendezvous(n.cfg, natureDecision(n.cfg, n.master, v.Gen), v.Gen) {
			v.Gen++ // no rendezvous left in the window: its end is the last one
		}
	}
	tb := n.pt.begin()
	if _, err := n.c.Bcast(0, v.encode()); err != nil {
		return err
	}
	if v.Stop {
		if err := n.c.Barrier(); err != nil {
			return err
		}
	}
	n.pt.end(PhaseBroadcast, tb)
	return nil
}

// fitnesses receives the selected SSets' payoff segments point-to-point
// from their owners (torus network in the paper); teacher first, then
// learner, in segment order.
func (n *natureRank) fitnesses(teacher, learner int) (piT, piL float64, err error) {
	tf := n.pt.begin()
	if piT, err = n.recvFitness(teacher); err != nil {
		return 0, 0, err
	}
	if piL, err = n.recvFitness(learner); err != nil {
		return 0, 0, err
	}
	n.pt.end(PhaseFitnessComm, tf)
	return piT, piL, nil
}

// recvFitness reassembles SSet i's fitness from its row segments, folding
// payoffs in ascending column order so the floating-point sum matches the
// sequential engine bit for bit — at any worker count, which is what makes
// post-eviction re-sharding trajectory-invariant.
func (n *natureRank) recvFitness(i int) (float64, error) {
	total := 0.0
	for _, seg := range n.segs[i] {
		msg, err := n.c.Recv(1+seg.worker, tagFitness)
		if err != nil {
			return 0, err
		}
		part, err := payoffsIn(msg, seg.hi-seg.lo)
		if err != nil {
			return 0, err
		}
		total = foldPayoffs(total, part)
	}
	return total / float64(n.cfg.NumSSets-1), nil
}

// payoffsIn takes the payoffs of want pairs out of a worker's message. The
// workers choose by themselves which rows to return, so what arrives is
// checked: a payload of another type or length is a corrupt engine message —
// an error, not a Nature-rank panic or a silently forked trajectory.
func payoffsIn(msg mpi.Message, want int) ([]float64, error) {
	part, ok := msg.Payload.([]float64)
	if !ok || len(part) != want {
		return nil, fmt.Errorf("sim: rank %d sent %T (%d payoffs) with tag %d, want the %d payoffs of its pairs", msg.Source, msg.Payload, len(part), msg.Tag, want)
	}
	return part, nil
}

// meanFitness joins the workers' payoff reduction; Nature contributes 0.
func (n *natureRank) meanFitness() (float64, error) {
	tr := n.pt.begin()
	total, err := n.c.Reduce(0, 0, mpi.OpSum)
	if err != nil {
		return 0, err
	}
	n.pt.end(PhaseReduce, tr)
	s := n.cfg.NumSSets
	return total / float64(s*(s-1)), nil
}

func (n *natureRank) finalize() error {
	cfg, c, s := n.cfg, n.c, n.cfg.NumSSets
	// A resume directly into finalization replays the last generation's
	// games wholesale; account for them in the cross-check (the restored
	// GamesPlayed already covers the run's schedule).
	if n.pendingFull {
		n.crossCheck += uint64(s * (s - 1))
		n.pendingFull = false
	}
	// The end of the window is the last rendezvous: a stop told after the
	// last one inside it reaches the workers here, before they ship anything.
	if err := n.verdict(verdict{Gen: n.end}); err != nil {
		return err
	}
	// Collect the final payoff blocks into one covering the whole pair list.
	nWorkers := c.Size() - 1
	full := newPairBlock(s, 0, s*(s-1))
	tf := n.pt.begin()
	for w := 0; w < nWorkers; w++ {
		msg, err := c.Recv(1+w, tagRows)
		if err != nil {
			return err
		}
		lo, hi := blockRange(s*(s-1), nWorkers, w)
		rows, err := payoffsIn(msg, hi-lo)
		if err != nil {
			return err
		}
		copy(full.payoffs[lo:], rows)
	}
	n.pt.end(PhaseFitnessComm, tf)
	// The workers' reduced game count cross-checks Nature's scheduled
	// tally: both sides evaluate the same refresh predicate over the
	// same window, so any divergence means the global views drifted.
	tr := n.pt.begin()
	games, err := c.Reduce(0, 0, mpi.OpSum)
	if err != nil {
		return err
	}
	n.pt.end(PhaseReduce, tr)
	if uint64(games) != n.crossCheck {
		return fmt.Errorf("sim: workers played %d games since the last synchronisation, Nature scheduled %d — global views diverged",
			uint64(games), n.crossCheck)
	}
	// Collect every rank's phase timings. Gated on Metrics so the
	// collective-operation counters existing fault scripts key on are
	// unchanged when observability is off; symmetric with the workers'
	// finalize.
	if cfg.Metrics {
		parts, err := c.Gather(0, nil)
		if err != nil {
			return err
		}
		rm, _, err := decodeReports(n.pt.snapshot(c.OrigRank()), parts)
		if err != nil {
			return err
		}
		n.res.Metrics = rm
	}
	// In eviction mode a final barrier keeps workers resident until
	// Nature has everything, so a late failure still finds every
	// survivor able to agree. Gated on Evict: an unconditional barrier
	// would shift the operation counters existing fault scripts key on.
	if cfg.Evict {
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	n.res.FinalFitness = full.fitnesses()
	return nil
}

// workerRank is ranks 1..P-1: it owns a contiguous block of game pairs,
// keeps the same global strategy view as Nature by deriving each generation's
// plan from (Seed, gen) as Nature does, plays its matches locally, and meets
// the other ranks only at a rendezvous (see rendezvous).
//
// With cfg.Evict, a rank failure drops the worker into the survivor-side
// eviction protocol: agree, shrink, then adopt Nature's resume broadcast
// wholesale — new dense rank, re-sharded pair block, authoritative strategy
// view — and replay every owned pair from the interrupted generation's
// random streams.
type workerRank struct {
	cfg    *Config
	c      *mpi.Comm
	master *rng.Source
	pop    *Population
	kern   *payoffKernel
	block  *pairBlock
	pt     *phaseTimer
	// games counts every owned pair the schedule touched since the last
	// (re)synchronisation, for Nature's cross-check.
	games    uint64
	gen, end int
	// pendingFull marks that an eviction re-sharded this worker's block:
	// the next pass replays every owned pair from replayGen's streams.
	pendingFull bool
	replayGen   int
}

func newWorkerRank(cfg *Config, c *mpi.Comm) *workerRank {
	master := rng.New(cfg.Seed)
	w := &workerRank{
		cfg:    cfg,
		master: master,
		pop:    NewPopulation(*cfg, master), // same deterministic initialisation
		kern:   newPayoffKernel(cfg),
		gen:    cfg.StartGeneration,
		end:    cfg.StartGeneration + cfg.Generations,
	}
	if cfg.Metrics {
		w.pt = newPhaseTimer()
	}
	w.join(c)
	return w
}

// join makes c the worker's communicator and (re-)shards the pair list
// over its workers.
func (w *workerRank) join(c *mpi.Comm) {
	s := w.cfg.NumSSets
	lo, hi := blockRange(s*(s-1), c.Size()-1, c.Rank()-1)
	w.c, w.block, w.games = c, newPairBlock(s, lo, hi), 0
}

func (w *workerRank) position() int { return w.gen }

func (w *workerRank) step() (bool, error) {
	if w.gen < w.end {
		return false, w.generation()
	}
	return true, w.finalize()
}

// resync adopts Nature's resume broadcast wholesale: the worker may be a
// generation ahead of or behind Nature (a dead mid-tree rank can break a
// broadcast relay part-way), so local state is untrusted.
func (w *workerRank) resync(nc *mpi.Comm) error {
	rsAny, err := nc.Bcast(0, nil)
	if err != nil {
		return err
	}
	rs, err := decodeResume(w.cfg, rsAny)
	if err != nil {
		return err
	}
	w.pop.replaceAll(rs.Strategies)
	w.pop.clearDirty()
	w.gen, w.replayGen, w.pendingFull = rs.Gen, rs.Replay, true
	w.join(nc)
	return nil
}

// play is the worker's game dynamics: replay the owned pairs whose
// participants changed — or, after an eviction re-sharded the block, every
// owned pair from the interrupted generation's streams.
func (w *workerRank) play() error {
	gen, all := w.gen, w.cfg.FullRecompute
	if w.pendingFull {
		gen, all, w.pendingFull = w.replayGen, true, false
	}
	tg := w.pt.begin()
	played, err := w.block.refresh(w.cfg, w.pop, w.master, w.kern, gen, all)
	w.games += played
	if err != nil {
		return err
	}
	w.pt.end(PhaseGamePlay, tg)
	return nil
}

// takeVerdict receives Nature's verdict at the rendezvous the worker stands
// at and reports whether the learner adopted. A stop is answered with the
// Barrier Nature waits in and ends the worker with ErrStopped.
func (w *workerRank) takeVerdict(pc bool) (adopted bool, err error) {
	tb := w.pt.begin()
	p, err := w.c.Bcast(0, nil)
	if err != nil {
		return false, err
	}
	v, err := decodeVerdict(w.cfg, p, w.gen, pc, 0)
	if err != nil {
		return false, err
	}
	if v.Stop {
		if err := w.c.Barrier(); err != nil {
			return false, err
		}
		return false, fmt.Errorf("sim: worker %d: %w", w.c.Rank(), ErrStopped)
	}
	w.pt.end(PhaseBroadcast, tb)
	return v.Adopted, nil
}

func (w *workerRank) generation() error {
	if err := w.play(); err != nil {
		return err
	}
	w.pop.clearDirty()

	d := natureDecision(w.cfg, w.master, w.gen)
	if d.pc {
		// Owners of the selected rows return their segments; teacher
		// before learner so Nature's ordered receives match when one
		// worker owns pieces of both. The segments alias the block: the
		// worker next blocks on the verdict, which Nature sends after
		// folding what it received, and a failure in between re-shards onto
		// a fresh block (join).
		tf := w.pt.begin()
		for _, i := range [2]int{d.teacher, d.learner} {
			if seg := w.block.segment(i); seg != nil {
				if err := w.c.Send(0, tagFitness, seg); err != nil {
					return err
				}
			}
		}
		w.pt.end(PhaseFitnessComm, tf)
	}
	if rendezvous(w.cfg, d, w.gen) {
		adopted, err := w.takeVerdict(d.pc)
		if err != nil {
			return err
		}
		if adopted {
			w.pop.Adopt(d.learner, d.teacher)
		}
	}
	if d.mutate {
		w.pop.SetStrategy(d.mutant, mutantStrategy(w.cfg, w.master, w.pop.Space(), w.gen))
	}
	if w.gen%w.cfg.SampleStride == 0 {
		tr := w.pt.begin()
		if _, err := w.c.Reduce(0, foldPayoffs(0, w.block.payoffs), mpi.OpSum); err != nil {
			return err
		}
		w.pt.end(PhaseReduce, tr)
	}
	w.gen++
	return nil
}

func (w *workerRank) finalize() error {
	// A resume directly into finalization still rebuilds the re-sharded
	// block before shipping it.
	if w.pendingFull {
		if err := w.play(); err != nil {
			return err
		}
	}
	if _, err := w.takeVerdict(false); err != nil {
		return err
	}
	// Ship the final payoff block — itself: nothing rewrites it after this —
	// and the game counter to Nature.
	tf := w.pt.begin()
	if err := w.c.Send(0, tagRows, w.block.payoffs); err != nil {
		return err
	}
	w.pt.end(PhaseFitnessComm, tf)
	tr := w.pt.begin()
	if _, err := w.c.Reduce(0, float64(w.games+skew(w.cfg, w.c)), mpi.OpSum); err != nil {
		return err
	}
	w.pt.end(PhaseReduce, tr)
	// Ship the phase timings (plus this rank's payoff-table counters when
	// it keeps a table); mirrors Nature's metrics Gather.
	if w.cfg.Metrics {
		snap := w.pt.snapshot(w.c.OrigRank())
		snap.Cache = w.kern.cacheStats(w.pop)
		if _, err := w.c.Gather(0, rankReport{RankPhaseSnapshot: snap}.encode()); err != nil {
			return err
		}
	}
	// Mirror Nature's eviction-mode barrier: stay resident until every
	// rank is done, so a late failure still finds a full survivor set.
	if w.cfg.Evict {
		return w.c.Barrier()
	}
	return nil
}
