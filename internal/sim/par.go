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

// update is the Nature Agent's end-of-generation broadcast: the strategy
// changes every rank must apply to its global view (paper §V-B, "global
// strategy updates" over the collective network).
type update struct {
	Adopted          bool
	Learner, Teacher int
	Mutated          bool
	Mutant           int
	MutantStrategy   strategy.Strategy
	// MeanFitnessWanted tells workers to join a fitness reduction for the
	// observability series this generation.
	MeanFitnessWanted bool
}

// encode is the update's message: flags Adopted (bit 0) and
// MeanFitnessWanted (bit 1), fields learner, teacher, mutant, and the mutant
// strategy when — and only when — Mutated.
func (u update) encode() []byte {
	var mutant []strategy.Strategy
	if u.Mutated {
		mutant = []strategy.Strategy{u.MutantStrategy}
	}
	return encodeMessage(msgUpdate, flagBits(u.Adopted, u.MeanFitnessWanted), [3]int{u.Learner, u.Teacher, u.Mutant}, mutant...)
}

// decodeUpdate validates a received update against the run's Config; a
// mutant must be one randomStrategy(cfg.Kind) could have drawn.
func decodeUpdate(cfg *Config, payload any) (update, error) {
	u, err := decodeMessage(cfg, payload, msgUpdate, cfg.NumSSets, 0, 1, func(flags byte, f [3]int, sts []strategy.Strategy) update {
		u := update{Adopted: flags&1 != 0, MeanFitnessWanted: flags&2 != 0, Mutated: len(sts) == 1, Learner: f[0], Teacher: f[1], Mutant: f[2]}
		if u.Mutated {
			u.MutantStrategy = sts[0]
		}
		return u
	})
	if _, mixed := u.MutantStrategy.(*strategy.Mixed); err == nil && u.Mutated && mixed != (cfg.Kind == MixedStrategies) {
		err = errors.New("sim: update mutant strategy is not of the run's strategy kind")
	}
	return u, err
}

// selection is the Nature Agent's mid-generation broadcast: which SSets are
// being compared (paper: "alerting of the SSets selected for pairwise
// comparison"). PC false means no comparison this generation.
type selection struct {
	PC               bool
	Teacher, Learner int
	// Stop tells workers the run is ending at this generation boundary on a
	// control-hook request (pause/cancel); no update broadcast follows and
	// every rank exits. It rides in the selection slot because workers play a
	// generation's games before hearing from Nature — this broadcast is the
	// first rendezvous where a stop can reach them.
	Stop bool
}

// encode is the selection's message: flags PC (bit 0) and Stop (bit 1),
// fields teacher, learner and an unused zero.
func (s selection) encode() []byte {
	return encodeMessage(msgSelection, flagBits(s.PC, s.Stop), [3]int{s.Teacher, s.Learner})
}

// decodeSelection validates a received selection against the run's Config.
func decodeSelection(cfg *Config, payload any) (selection, error) {
	return decodeMessage(cfg, payload, msgSelection, cfg.NumSSets, 0, 0, func(flags byte, f [3]int, _ []strategy.Strategy) selection {
		return selection{PC: flags&1 != 0, Stop: flags&2 != 0, Teacher: f[0], Learner: f[1]}
	})
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
	return decodeMessage(cfg, payload, msgResume, math.MaxInt, cfg.NumSSets, cfg.NumSSets, func(_ byte, f [3]int, sts []strategy.Strategy) resume {
		return resume{Gen: f[0], Replay: f[1], Strategies: sts}
	})
}

// The parallel engine's three broadcasts travel as bytes the engine lays out
// itself, in process and over a transport alike, so the bytes mpi counts are
// the message. One layout serves all three: the kind — a message arriving
// where another was due is refused, not misread — a flags byte, three
// little-endian uint32 fields (SSet indices, or generation numbers: a run is
// far shorter than 2^32 generations), then zero or more strategies in the
// checkpoint stream's form (checkpoint.AppendStrategy).
const (
	msgSelection byte = 1 + iota
	msgUpdate
	msgResume
)

const msgHeadLen = 2 + 3*4

// msgNames names each kind of message and then its three fields, for errors.
var msgNames = [...][4]string{msgSelection: {"selection", "teacher", "learner"}, msgUpdate: {"update", "learner", "teacher", "mutant"}, msgResume: {"resume", "generation", "replay generation"}}

func flagBits(flags ...bool) (b byte) {
	for i, f := range flags {
		if f {
			b |= 1 << i
		}
	}
	return b
}

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
// message of it. The payload must be a message of the wanted kind, every
// field must lie in [0, bound), between lo and hi strategies of the run's
// memory depth must follow, and the whole must be, byte for byte, the
// encoding of what was built from it: no trailing bytes, no unknown flag
// bit, no value in an unused field, no second spelling of a strategy.
func decodeMessage[T interface{ encode() []byte }](cfg *Config, payload any, kind byte, bound, lo, hi int, build func(flags byte, f [3]int, sts []strategy.Strategy) T) (msg T, err error) {
	b, ok := payload.([]byte)
	if !ok || len(b) < msgHeadLen || b[0] != kind {
		return msg, fmt.Errorf("sim: expected a %s message, received %T %.14x", msgNames[kind][0], payload, b)
	}
	var f [3]int
	for i := range f {
		if f[i] = int(binary.LittleEndian.Uint32(b[2+4*i:])); f[i] >= bound {
			return msg, fmt.Errorf("sim: %s %s %d outside [0,%d)", msgNames[kind][0], msgNames[kind][1+i], f[i], bound)
		}
	}
	var sts []strategy.Strategy
	if len(b) > msgHeadLen || lo > 0 { // most messages end at the header: no reader for those
		for rest := bytes.NewReader(b[msgHeadLen:]); len(sts) < hi && (rest.Len() > 0 || len(sts) < lo); {
			st, err := checkpoint.ReadStrategy(rest, strategy.NewSpace(cfg.Memory))
			if err != nil {
				return msg, fmt.Errorf("sim: %s strategy %d: %w", msgNames[kind][0], len(sts), err)
			}
			sts = append(sts, st)
		}
	}
	msg = build(b[1], f, sts)
	if re := msg.encode(); !bytes.Equal(b, re) {
		return msg, fmt.Errorf("sim: %s of %d bytes %.14x is not the %d-byte encoding %.14x of its content", msgNames[kind][0], len(b), b, len(re), re)
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
	err := launch(func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return runWorkerRank(&cfg, c)
		}
		start = time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
		n := newNatureRank(&cfg, c)
		if err := runRank(&cfg, c, n); err != nil {
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

// natureSnap is the Nature Agent's rollback point for live eviction:
// everything a generation changes before it completes, which is what
// replaying the one a failure interrupted needs (gen itself only advances
// on success). The dirty marks are not among it: the replay recomputes
// every pair and clears them.
// Strategy references can be shared because strategies are immutable —
// Adopt and SetStrategy replace entries, never mutate them in place.
type natureSnap struct {
	strategies      []strategy.Strategy
	counters        Counters
	fitLen, coopLen int
}

// natureRank is rank 0: the paper's Nature Agent driving the shared
// generation over the wire. It is its own fitness source — it owns no game
// pairs, so refresh only tallies the schedule, the selection and update go
// out by broadcast, and the selected fitness values come back
// point-to-point.
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
	snap        natureSnap
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

func (n *natureRank) takeSnap() {
	n.snap.strategies = append(n.snap.strategies[:0], n.pop.strategies...)
	n.snap.counters = n.res.Counters
	n.snap.fitLen = n.res.MeanFitness.Len()
	n.snap.coopLen = n.res.Cooperation.Len()
}

// resync rolls Nature back to the snapshot and rebroadcasts it as the
// authoritative state.
func (n *natureRank) resync(nc *mpi.Comm) error {
	n.pop.replaceAll(n.snap.strategies)
	n.pop.clearDirty()
	n.res.Counters = n.snap.counters
	n.res.MeanFitness.Truncate(n.snap.fitLen)
	n.res.Cooperation.Truncate(n.snap.coopLen)
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

// announce broadcasts the selection to all ranks (collective network).
func (n *natureRank) announce(sel selection) error { return n.bcast(sel.encode()) }

// publish broadcasts the global strategy update (collective network).
func (n *natureRank) publish(u update) error { return n.bcast(u.encode()) }

func (n *natureRank) bcast(payload []byte) error {
	tb := n.pt.begin()
	if _, err := n.c.Bcast(0, payload); err != nil {
		return err
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
		total = foldPayoffs(total, msg.Payload.([]float64))
	}
	return total / float64(n.cfg.NumSSets-1), nil
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
	// Collect the final payoff blocks into one covering the whole pair list.
	nWorkers := c.Size() - 1
	full := newPairBlock(s, 0, s*(s-1))
	tf := n.pt.begin()
	for w := 0; w < nWorkers; w++ {
		msg, err := c.Recv(1+w, tagRows)
		if err != nil {
			return err
		}
		lo, _ := blockRange(s*(s-1), nWorkers, w)
		copy(full.payoffs[lo:], msg.Payload.([]float64))
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
		// Gathered by dense rank — survivors in ascending original rank
		// (mpi.World.Shrink) — so Phases is already ordered by Rank.
		rm := &RunMetrics{Phases: make([]RankPhaseSnapshot, len(parts))}
		rm.Phases[0] = n.pt.snapshot(c.OrigRank())
		for i, part := range parts[1:] {
			b, _ := part.([]byte)
			if err := json.Unmarshal(b, &rm.Phases[1+i]); err != nil {
				return fmt.Errorf("sim: phase snapshot of rank %d: %w", 1+i, err)
			}
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
// keeps the same global strategy view as Nature, plays its matches locally,
// and applies broadcast updates.
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

// runWorkerRank runs a worker to completion. A control stop announced by
// Nature is a clean exit, so the run's only error is Nature's, carrying the
// snapshot outcome.
func runWorkerRank(cfg *Config, c *mpi.Comm) error {
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
	if err := runRank(cfg, c, w); !errors.Is(err, ErrStopped) {
		return err
	}
	return nil
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

// sendSegment returns the owned piece of SSet i's payoff row to Nature, if
// this worker owns any of it.
func (w *workerRank) sendSegment(i int) error {
	seg := w.block.segment(i)
	if seg == nil {
		return nil
	}
	return w.c.Send(0, tagFitness, append([]float64(nil), seg...))
}

// recvBcast receives and decodes one of Nature's per-generation broadcasts.
func recvBcast[T any](w *workerRank, decode func(*Config, any) (T, error)) (msg T, err error) {
	tb := w.pt.begin()
	v, err := w.c.Bcast(0, nil)
	if err != nil {
		return msg, err
	}
	w.pt.end(PhaseBroadcast, tb)
	return decode(w.cfg, v)
}

func (w *workerRank) generation() error {
	if err := w.play(); err != nil {
		return err
	}
	w.pop.clearDirty()

	// Receive the PC selection.
	sel, err := recvBcast(w, decodeSelection)
	if err != nil {
		return err
	}
	if sel.Stop {
		return fmt.Errorf("sim: worker %d: %w", w.c.Rank(), ErrStopped)
	}
	if sel.PC {
		// Owners of the selected rows return their segments; teacher
		// before learner so Nature's ordered receives match when one
		// worker owns pieces of both.
		tf := w.pt.begin()
		if err := w.sendSegment(sel.Teacher); err != nil {
			return err
		}
		if err := w.sendSegment(sel.Learner); err != nil {
			return err
		}
		w.pt.end(PhaseFitnessComm, tf)
	}

	// Apply the global strategy update.
	u, err := recvBcast(w, decodeUpdate)
	if err != nil {
		return err
	}
	if u.Adopted {
		w.pop.Adopt(u.Learner, u.Teacher)
	}
	if u.Mutated {
		w.pop.SetStrategy(u.Mutant, u.MutantStrategy)
	}
	if u.MeanFitnessWanted {
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
	// Ship the final payoff block and the game counter to Nature.
	tf := w.pt.begin()
	if err := w.c.Send(0, tagRows, append([]float64(nil), w.block.payoffs...)); err != nil {
		return err
	}
	w.pt.end(PhaseFitnessComm, tf)
	tr := w.pt.begin()
	if _, err := w.c.Reduce(0, float64(w.games), mpi.OpSum); err != nil {
		return err
	}
	w.pt.end(PhaseReduce, tr)
	// Ship the phase timings (plus this rank's cache counters when
	// caching is on); mirrors Nature's metrics Gather.
	if w.cfg.Metrics {
		snap := w.pt.snapshot(w.c.OrigRank())
		snap.Cache = w.kern.cacheStats(w.pop)
		// The snapshot travels as its JSON, space-padded (JSON ignores
		// trailing white space) to the length it has with 19-digit Nanos:
		// the comm byte counters must not depend on wall-clock digits.
		b, _ := json.Marshal(snap) // plain counters: cannot fail
		for _, p := range snap.Phases {
			b = append(b, "                   "[len(strconv.FormatInt(p.Nanos, 10)):]...)
		}
		if _, err := w.c.Gather(0, b); err != nil {
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
