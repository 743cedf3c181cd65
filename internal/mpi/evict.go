package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the runtime's live-recovery layer, modelled on MPI's
// User-Level Failure Mitigation (ULFM) proposal: instead of tearing the whole
// world down when a rank dies (the abort path Run takes by default), an
// eviction-enabled world detects the death with a heartbeat failure
// detector, revokes every communicator the dead rank belonged to so blocked
// survivors unwind promptly, lets the survivors reach agreement on the
// surviving-rank set (Comm.Agree), and builds a dense sub-communicator from
// the survivors (Comm.Shrink) on which the computation continues. The dead
// rank's operation counters, traffic totals, and fault-plan identity are
// preserved: sub-worlds route all accounting to the root world indexed by
// original rank, so "rank 2's 500th send" names the same event before and
// after a shrink.

// ErrRevoked is the sentinel matched by operations on a communicator that
// has been revoked after a member rank failed. The concrete error also
// matches ErrAborted (so pre-eviction unwind code keeps working) and carries
// the *RankFailedError naming the dead rank for errors.As.
var ErrRevoked = errors.New("mpi: communicator revoked")

// Default heartbeat parameters for EnableEviction.
const (
	DefaultHeartbeatEvery  = 20 * time.Millisecond
	DefaultHeartbeatMisses = 3
)

// Eviction records one rank declared failed by the detector.
type Eviction struct {
	// Rank is the failed rank, in root-world (original) numbering.
	Rank int
	// Err is the failure cause: the rank's own exit error when it died
	// observably, or a missed-heartbeat diagnosis.
	Err error
}

// agreeRound is one rendezvous of the Agree collective, kept where the
// coordinator's state lives: the shared root world of an in-process run,
// rank 0 of a networked one. Rounds are keyed by a per-rank sequence number:
// every live rank's Nth Agree call joins round N, which stays aligned because
// the recovery protocol performs exactly one Agree per rank per failure epoch.
type agreeRound struct {
	arrived map[int]bool
	// replied marks the remote ranks already sent the result (networked
	// worlds only; in-process waiters read it from the round itself).
	replied map[int]bool
	result  []int
}

// EnableEviction switches the world from abort-on-failure to live-eviction
// semantics and arms the heartbeat failure detector: each rank's runtime
// emits a liveness tick every `every`; a monitor declares a rank dead after
// `misses` consecutive missed deadlines (non-positive arguments select
// DefaultHeartbeatEvery / DefaultHeartbeatMisses). On a declared failure
// every communicator containing the dead rank is revoked — pending and
// future operations on it fail with an error matching ErrRevoked — and
// survivors are expected to call Agree then Shrink and continue on the
// sub-communicator. Run then returns nil as long as every rank that was NOT
// evicted finished cleanly. Must be called before Run, on the root world.
func (w *World) EnableEviction(every time.Duration, misses int) {
	if w.root != nil {
		panic("mpi: EnableEviction on a shrunk sub-world; enable on the root")
	}
	if every <= 0 {
		every = DefaultHeartbeatEvery
	}
	if misses <= 0 {
		misses = DefaultHeartbeatMisses
	}
	w.evict = true
	w.hbEvery = every
	w.hbMisses = misses
	w.econd = sync.NewCond(&w.emu)
	w.lastBeat = make([]atomic.Int64, w.size)
	w.done = make([]bool, w.size)
	w.finishedOK = make([]bool, w.size)
	w.exitErr = make([]error, w.size)
	w.exited = make([]chan struct{}, w.size)
	for i := range w.exited {
		w.exited[i] = make(chan struct{})
	}
	w.failedP = make([]atomic.Pointer[RankFailedError], w.size)
	w.agreeSeq = make([]int, w.size)
	w.agreeRounds = make(map[int]*agreeRound)
}

// Evictions returns the ranks declared failed so far, in detection order.
func (w *World) Evictions() []Eviction {
	r := w.rootW()
	if !r.evict {
		return nil
	}
	r.emu.Lock()
	defer r.emu.Unlock()
	return append([]Eviction(nil), r.evictions...)
}

// Evictions returns the eviction record of the root world this comm
// descends from — usable from inside Run to attribute recoveries.
func (c *Comm) Evictions() []Eviction { return c.world.Evictions() }

// rankExited records a rank leaving Run's body in eviction mode. The rank's
// heartbeat stops with it; if it exited with a genuine error the monitor
// will declare it failed once the deadline lapses.
func (w *World) rankExited(rank int, err error) {
	w.emu.Lock()
	w.done[rank] = true
	w.finishedOK[rank] = err == nil
	w.exitErr[rank] = err
	w.emu.Unlock()
	close(w.exited[rank])
	w.econd.Broadcast()
}

// startHeartbeat launches one beat emitter per rank this process hosts —
// every rank of an in-process world, self on a networked one, where each
// beat also goes out over the wire — and the failure monitor; the returned
// function stops them. Nil when eviction is off. Ranks hosted elsewhere have
// their lastBeat refreshed by noteRemoteBeat; they are primed with a start-up
// grace so a peer process that launches a moment later is not declared dead
// before its first beat can possibly arrive. Timing uses a monotonic offset
// from hbStart so wall-clock jumps cannot fake a missed deadline.
func (w *World) startHeartbeat() func() {
	if !w.evict {
		return nil
	}
	// Under emu: noteRemoteBeat reads hbStart from the transport's goroutines.
	w.emu.Lock()
	w.hbStart = time.Now()
	w.emu.Unlock()
	deadline := time.Duration(w.hbMisses) * w.hbEvery
	grace := deadline
	if grace < time.Second {
		grace = time.Second
	}
	nt, _ := w.tr.(*NetTransport)
	stop := make(chan struct{})
	var hwg sync.WaitGroup
	// every runs tick once per beat interval until stop or until exited
	// closes (a nil exited never does).
	every := func(exited <-chan struct{}, tick func()) {
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			t := time.NewTicker(w.hbEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-exited:
					return
				case <-t.C:
					tick()
				}
			}
		}()
	}
	for r := 0; r < w.size; r++ {
		if w.self >= 0 && r != w.self {
			w.lastBeat[r].Store(int64(grace))
			continue
		}
		rank := r
		every(w.exited[rank], func() {
			w.lastBeat[rank].Store(int64(time.Since(w.hbStart)))
			w.noteHeartbeat(rank)
			if nt != nil {
				nt.Beat()
			}
		})
	}
	every(nil, func() { w.monitorTick(deadline) })
	return func() {
		close(stop)
		hwg.Wait()
	}
}

// monitorTick scans for ranks whose heartbeat has gone stale past the
// deadline and declares them failed. A rank that finished cleanly, or that
// is merely unwinding on someone else's failure (its exit error matches
// ErrAborted/ErrRevoked), is not a failure — evicting a cascading survivor
// would pollute the eviction record during teardown.
func (w *World) monitorTick(deadline time.Duration) {
	now := time.Since(w.hbStart)
	for r := 0; r < w.size; r++ {
		if w.failedP[r].Load() != nil {
			continue
		}
		w.emu.Lock()
		fin := w.finishedOK[r]
		exitErr := w.exitErr[r]
		w.emu.Unlock()
		if fin {
			continue
		}
		if exitErr != nil && (errors.Is(exitErr, ErrRevoked) || errors.Is(exitErr, ErrAborted)) {
			continue
		}
		last := time.Duration(w.lastBeat[r].Load())
		if now-last < deadline {
			continue
		}
		cause := exitErr
		if cause == nil {
			cause = fmt.Errorf("mpi: missed %d heartbeats (deadline %v)", w.hbMisses, deadline)
		}
		w.markFailed(r, cause)
	}
}

// markFailed declares an original rank dead: records the eviction, wakes
// Agree waiters, and revokes every communicator the rank belongs to. The
// first declaration for a rank wins; duplicates are no-ops.
func (w *World) markFailed(orig int, cause error) {
	rf := &RankFailedError{Rank: orig, Err: cause}
	if !w.failedP[orig].CompareAndSwap(nil, rf) {
		return
	}
	w.emu.Lock()
	w.evictions = append(w.evictions, Eviction{Rank: orig, Err: cause})
	w.emu.Unlock()
	w.econd.Broadcast()
	for _, sub := range w.allWorlds() {
		if sub.contains(orig) {
			sub.revokeWith(rf)
		}
	}
	w.netAgreeKick()
}

// revokeWith marks this communicator revoked on behalf of the failed rank
// and releases every blocked receive on it. The cause is published before
// the flag so revokeErr never observes the flag without a cause.
func (w *World) revokeWith(rf *RankFailedError) {
	w.revokeCause.CompareAndSwap(nil, fmt.Errorf("%w (rank %d down): %w", ErrRevoked, rf.Rank, rf))
	if w.revoked.CompareAndSwap(false, true) {
		err := w.revokeCause.Load().(error)
		for _, ib := range w.boxes {
			ib.finish(err)
		}
	}
}

// revokeErr returns the revocation error when this communicator has been
// revoked, nil otherwise. The error matches ErrRevoked and ErrAborted, and
// errors.As recovers the *RankFailedError naming the dead rank.
func (w *World) revokeErr() error {
	if !w.revoked.Load() {
		return nil
	}
	return w.revokeCause.Load().(error)
}

// sendFence fails sends touching a failed rank fast (ULFM's poisoned
// endpoints): a Send to a dead rank would otherwise buffer silently forever,
// and a dead rank's counter identity must not advance. Ranks are original.
func (w *World) sendFence(src, dst int) error {
	if rf := w.failedP[src].Load(); rf != nil {
		return fmt.Errorf("mpi: send from failed rank %d: %w", src, rf)
	}
	if rf := w.failedP[dst].Load(); rf != nil {
		return fmt.Errorf("mpi: send to failed rank %d: %w", dst, rf)
	}
	return nil
}

// resolveEvicted computes Run's verdict in eviction mode: success as long as
// every rank that was not evicted finished cleanly — an evicted rank's death
// was, by definition, recovered from. Otherwise the per-rank errors are
// joined in rank order, evicted ranks contributing their recorded
// *RankFailedError so the supervisor can attribute the failure.
func (w *World) resolveEvicted(errs []error) error {
	clean := true
	for r := 0; r < w.size; r++ {
		if w.failedP[r].Load() == nil && errs[r] != nil {
			clean = false
			break
		}
	}
	if clean {
		return nil
	}
	var joined []error
	for r := 0; r < w.size; r++ {
		if rf := w.failedP[r].Load(); rf != nil {
			joined = append(joined, rf)
			continue
		}
		if errs[r] == nil {
			continue
		}
		if errors.Is(errs[r], ErrAborted) {
			joined = append(joined, fmt.Errorf("mpi: rank %d: %w", r, errs[r]))
		} else {
			joined = append(joined, &RankFailedError{Rank: r, Err: errs[r]})
		}
	}
	return errors.Join(joined...)
}

// Agree is the fault-tolerant agreement collective (ULFM's
// MPIX_Comm_agree): every live rank that calls it receives the same
// surviving-rank set — the ranks that reached this agreement round and have
// not been declared failed — in original-rank numbering, sorted ascending.
// It completes once every rank of the ROOT world has either arrived, been
// declared failed, or exited, so a rank that dies mid-protocol cannot block
// it (the heartbeat monitor's declaration unblocks the round).
//
// Rounds align by call count: each rank's Nth Agree joins round N. The
// recovery protocol must therefore perform exactly one Agree per failure
// epoch on every survivor, whichever communicator it entered the epoch on.
func (c *Comm) Agree() ([]int, error) {
	return c.world.rootW().agree(c.world.origOf(c.rank))
}

func (w *World) agree(orig int) ([]int, error) {
	if !w.evict {
		return nil, errors.New("mpi: Agree needs EnableEviction")
	}
	w.emu.Lock()
	if rf := w.failedP[orig].Load(); rf != nil {
		w.emu.Unlock()
		return nil, fmt.Errorf("mpi: rank %d cannot join agreement: %w", orig, rf)
	}
	round := w.agreeSeq[orig]
	w.agreeSeq[orig]++
	if w.self <= 0 {
		// The coordinator's state is local — every rank's on an in-process
		// world, rank 0's on a networked one: arrive, then wait until someone
		// resolves the round. Whoever is waiting resolves it, so in process a
		// dead rank 0 cannot block the round.
		rd := w.roundLocked(round)
		rd.arrived[orig] = true
		w.econd.Broadcast()
		res, replies := w.resolveLocked(rd)
		for res == nil {
			w.econd.Wait()
			res, replies = w.resolveLocked(rd)
		}
		w.emu.Unlock()
		w.sendAgreeResults(round, res, replies)
		return append([]int(nil), res...), nil
	}
	w.emu.Unlock()
	// A networked worker: announce the arrival to rank 0 over the wire
	// (frameAgree) and wait for its reply (frameAgreeResult). Rank 0 is a
	// single point of coordination; if it dies, the Agree fails with its
	// *RankFailedError and the application falls back to checkpoint-restart —
	// the same degradation the engine already takes when Nature dies.
	nt, ok := w.tr.(*NetTransport)
	if !ok {
		return nil, errors.New("mpi: networked Agree without a NetTransport")
	}
	if err := nt.sendAgree(round); err != nil {
		return nil, fmt.Errorf("mpi: rank %d cannot reach agreement coordinator: %w", orig, err)
	}
	w.emu.Lock()
	defer w.emu.Unlock()
	for {
		if res, ok := w.netResults[round]; ok {
			return append([]int(nil), res...), nil
		}
		if rf := w.failedP[0].Load(); rf != nil {
			return nil, fmt.Errorf("mpi: agreement coordinator failed: %w", rf)
		}
		if w.done[0] {
			return nil, errors.New("mpi: agreement coordinator exited before resolving the round")
		}
		w.econd.Wait()
	}
}

// roundLocked returns (creating if needed) the coordinator's state for a
// round. Callers hold emu.
func (w *World) roundLocked(round int) *agreeRound {
	rd := w.agreeRounds[round]
	if rd == nil {
		rd = &agreeRound{arrived: make(map[int]bool), replied: make(map[int]bool)}
		w.agreeRounds[round] = rd
	}
	return rd
}

// resolveLocked advances one coordinator round: resolves it when every
// root-world rank is accounted for — arrived, exited, or declared failed —
// and returns the result plus, on a networked world, the arrived remote
// ranks not yet replied to (the caller sends the replies outside the lock).
// A rank that arrived but was since declared failed still gets a reply — it
// is excluded from the result, and discovering that at Shrink is how a
// wrongly-revived process (SIGCONT after its eviction) learns it must exit.
// Callers hold emu.
func (w *World) resolveLocked(rd *agreeRound) (res []int, replies []int) {
	if rd.result == nil {
		for r := 0; r < w.size; r++ {
			if rd.arrived[r] || w.done[r] || w.failedP[r].Load() != nil {
				continue
			}
			return nil, nil
		}
		out := []int{}
		for r := 0; r < w.size; r++ {
			if rd.arrived[r] && w.failedP[r].Load() == nil {
				out = append(out, r)
			}
		}
		rd.result = out
		w.econd.Broadcast()
	}
	if w.self == 0 {
		for r := range rd.arrived {
			if r != 0 && !rd.replied[r] {
				rd.replied[r] = true
				replies = append(replies, r)
			}
		}
	}
	return rd.result, replies
}

// sendAgreeResults delivers a resolved round to the remote ranks resolveLocked
// named (none on an in-process world).
func (w *World) sendAgreeResults(round int, res []int, dsts []int) {
	if nt, ok := w.tr.(*NetTransport); ok {
		for _, dst := range dsts {
			_ = nt.sendAgreeResult(dst, round, res)
		}
	}
}

// Shrink builds the dense sub-communicator over the given survivors
// (original-rank numbering; ULFM's MPIX_Comm_shrink). Every rank calling
// Shrink with the same survivor set — normally the set Agree returned —
// receives the same sub-world: results are cached, so the collective is
// really a rendezvous on the root's registry. New-rank numbering is the
// survivors sorted ascending; counters, traffic totals, and the fault plan
// keep routing to the root under original numbering.
//
// A survivor that has already been declared failed fails the call; a failure
// declared concurrently with the call revokes the new sub-world immediately,
// so the caller's next operation on it fails with ErrRevoked and the
// recovery protocol runs another epoch.
func (w *World) Shrink(survivors []int) (*World, error) {
	root := w.rootW()
	if len(survivors) == 0 {
		return nil, errors.New("mpi: Shrink needs at least one survivor")
	}
	sorted := append([]int(nil), survivors...)
	sort.Ints(sorted)
	for i, r := range sorted {
		if r < 0 || r >= root.size {
			return nil, fmt.Errorf("mpi: Shrink survivor %d out of range [0,%d)", r, root.size)
		}
		if i > 0 && sorted[i-1] == r {
			return nil, fmt.Errorf("mpi: Shrink survivor %d duplicated", r)
		}
		if root.evict {
			if rf := root.failedP[r].Load(); rf != nil {
				return nil, fmt.Errorf("mpi: Shrink survivor %d has failed: %w", r, rf)
			}
		}
	}
	key := fmt.Sprint(sorted)
	root.wmu.Lock()
	if sub, ok := root.subs[key]; ok {
		root.wmu.Unlock()
		return sub, nil
	}
	sub := &World{
		size:        len(sorted),
		boxes:       make([]*inbox, len(sorted)),
		root:        root,
		orig:        sorted,
		recvTimeout: root.recvTimeout,
	}
	for i := range sub.boxes {
		sub.boxes[i] = newInbox()
	}
	root.subs[key] = sub
	root.worlds = append(root.worlds, sub)
	// Wire frames that raced ahead of this Shrink land now, inside the
	// registry lock, so they order before anything routed afterwards.
	root.flushPendingWire(key, sub)
	root.wmu.Unlock()
	// A Shrink racing past the end of Run builds a world no send can ever
	// reach: finish its inboxes immediately so a receive on it fails fast
	// with ErrShutdown instead of hanging until the receive deadline.
	if root.shut.Load() {
		for _, ib := range sub.boxes {
			ib.finish(ErrShutdown)
		}
	}
	// Close the race with a markFailed that snapshotted the registry before
	// this sub-world was registered: re-check every member now that the
	// registry holds it.
	if root.evict {
		for _, r := range sorted {
			if rf := root.failedP[r].Load(); rf != nil {
				sub.revokeWith(rf)
			}
		}
	}
	if root.aborted.Load() {
		cause := root.abortCause()
		for _, ib := range sub.boxes {
			ib.finish(cause)
		}
	}
	return sub, nil
}

// Shrink returns this rank's handle on the sub-communicator over survivors
// (see World.Shrink). It fails if the calling rank is not itself a survivor.
func (c *Comm) Shrink(survivors []int) (*Comm, error) {
	sub, err := c.world.Shrink(survivors)
	if err != nil {
		return nil, err
	}
	my := c.world.origOf(c.rank)
	for i, r := range sub.orig {
		if r == my {
			return &Comm{world: sub, rank: i}, nil
		}
	}
	return nil, fmt.Errorf("mpi: rank %d is not among the survivors %v", my, survivors)
}

// OrigRank returns this rank's original (root-world) rank: identical to
// Rank until a Shrink renumbers the survivors.
func (c *Comm) OrigRank() int { return c.world.origOf(c.rank) }

// netAgreeArrive records a remote survivor reaching a round (frameAgree at
// rank 0) and replies if the round resolves.
func (w *World) netAgreeArrive(orig, round int) {
	if !w.evict || w.self != 0 || orig <= 0 || orig >= w.size {
		return
	}
	w.emu.Lock()
	rd := w.roundLocked(round)
	rd.arrived[orig] = true
	w.econd.Broadcast()
	res, replies := w.resolveLocked(rd)
	w.emu.Unlock()
	w.sendAgreeResults(round, res, replies)
}

// netAgreeResult records a resolved round at a worker (frameAgreeResult).
func (w *World) netAgreeResult(round int, survivors []int) {
	if !w.evict || w.self <= 0 {
		return
	}
	if survivors == nil {
		survivors = []int{}
	}
	w.emu.Lock()
	if w.netResults == nil {
		w.netResults = make(map[int][]int)
	}
	w.netResults[round] = survivors
	w.emu.Unlock()
	w.econd.Broadcast()
}

// netAgreeKick re-evaluates every pending round at a networked coordinator
// after a liveness event (a rank declared failed or exited): the event may
// be exactly what a round was waiting for, and the remote ranks waiting on it
// hear of it only through the reply. (In-process waiters re-evaluate
// themselves on the econd broadcast that accompanies the event.)
func (w *World) netAgreeKick() {
	if !w.evict || w.self != 0 {
		return
	}
	type reply struct {
		round     int
		res, dsts []int
	}
	var outs []reply
	w.emu.Lock()
	for round, rd := range w.agreeRounds {
		if res, dsts := w.resolveLocked(rd); len(dsts) > 0 {
			outs = append(outs, reply{round, res, dsts})
		}
	}
	w.emu.Unlock()
	for _, o := range outs {
		w.sendAgreeResults(o.round, o.res, o.dsts)
	}
}
