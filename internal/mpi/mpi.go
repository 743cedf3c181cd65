// Package mpi is a message-passing runtime with MPI-like semantics whose
// ranks are goroutines. It is the substrate on which the parallel
// evolutionary-game engine runs, standing in for the C/MPI layer the paper
// used on Blue Gene/L and /P.
//
// Semantics follow MPI where it matters for the algorithm:
//
//   - Send is buffered (never blocks); Recv blocks until a matching message
//     (by source and tag, with wildcards) arrives. Messages from the same
//     (source, tag) pair are non-overtaking; the engine's point-to-point
//     fitness returns (the paper's torus traffic) ride on this pair.
//   - Bcast, Reduce, Gather, and Barrier are collectives implemented over
//     point-to-point messages (binomial trees for Bcast, Reduce and
//     Barrier), modelling the Blue Gene collective network the paper uses
//     for pair-selection announcements and global strategy updates (the
//     engine here broadcasts only Nature's verdict on them; see DESIGN.md).
//
// With World.EnableMetrics the runtime counts messages and bytes per rank
// and tag and times each collective (metrics.go); the engine reports the
// snapshot in Result.Metrics.Comm.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// internalTagBase marks tags reserved for collectives; user tags must be
// non-negative and below this value.
const internalTagBase = 1 << 30

// ErrAborted is the sentinel that communication calls match after any rank
// in the world has failed, so surviving ranks unwind instead of
// deadlocking. The concrete error returned is a *RankFailedError naming the
// first failed rank; errors.Is(err, ErrAborted) remains true for it.
var ErrAborted = errors.New("mpi: world aborted")

// Message is a received envelope.
type Message struct {
	Source  int
	Tag     int
	Payload any
}

// envelope is the in-flight form of a message.
type envelope struct {
	source  int
	tag     int
	payload any
}

// inbox is one rank's mailbox: an unbounded matching queue.
type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []envelope
	// done, when non-nil, is the terminal error blocked takes return after
	// exhausting queued matches: the abort cause (who failed) or
	// ErrShutdown once every rank has left Run.
	done error
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(e envelope) {
	ib.mu.Lock()
	ib.queue = append(ib.queue, e)
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// finish sets the terminal error for blocked takes; the first cause wins.
func (ib *inbox) finish(cause error) {
	ib.mu.Lock()
	if ib.done == nil {
		ib.done = cause
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// take removes and returns the first message matching (src, tag); it blocks
// until one arrives, the optional timeout expires, or the world ends (abort
// or shutdown). The AnyTag wildcard matches user tags only —
// collective-protocol messages live in their own context, as in MPI, so a
// wildcard receive can never steal a broadcast or barrier packet.
func (ib *inbox) take(src, tag int, timeout time.Duration) (envelope, error) {
	var expired bool
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			ib.mu.Lock()
			expired = true
			ib.mu.Unlock()
			ib.cond.Broadcast()
		})
		defer t.Stop()
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i, e := range ib.queue {
			tagOK := e.tag == tag || (tag == AnyTag && e.tag < internalTagBase)
			if tagOK && (src == AnySource || e.source == src) {
				ib.queue = append(ib.queue[:i], ib.queue[i+1:]...)
				return e, nil
			}
		}
		if ib.done != nil {
			return envelope{}, ib.done
		}
		if expired {
			return envelope{}, ErrRecvTimeout
		}
		ib.cond.Wait()
	}
}

// World is a set of ranks that can communicate. Create with NewWorld, run an
// SPMD function on every rank with Run. Shrink derives sub-worlds from a
// survivor set after a failure; sub-worlds share the original (root) world's
// counters, fault plan, and failure bookkeeping, all indexed by original
// rank, so scripted faults and statistics stay meaningful across a shrink.
type World struct {
	size    int
	boxes   []*inbox
	aborted atomic.Bool
	// cause is the abort cause (a *RankFailedError), stored once by the
	// CAS winner of abortWith.
	cause atomic.Value
	// sendCounts / collCounts are the per-rank operation counters fault
	// plans key off; deterministic for a deterministic SPMD program.
	// Indexed by original rank; sub-worlds route here, so "rank 2's 500th
	// send" keeps meaning the same event before and after a shrink.
	sendCounts []atomic.Uint64
	collCounts []atomic.Uint64
	// plan, when non-nil, scripts deterministic fault injection.
	plan *FaultPlan
	// recvTimeout, when non-zero, bounds every blocking receive.
	recvTimeout time.Duration
	// commMetrics, when non-nil, is the per-original-rank communication
	// accounting EnableMetrics armed (see metrics.go). Root world only;
	// sub-worlds route through rootW.
	commMetrics []*RankMetrics

	// tr delivers envelopes (the transport seam; see transport.go). The
	// in-process mailbox transport on ordinary worlds; a NetTransport when
	// the world's ranks live in separate processes. Root world only.
	tr Transport
	// self is the original rank this process hosts on a networked world,
	// -1 on in-process worlds (every rank is local). Root world only.
	self int
	// shut latches once shutdown has released pending receives: a Shrink
	// racing past the end of Run must finish its new inboxes immediately
	// rather than leave receivers hanging until their deadline.
	shut atomic.Bool
	// pendingWire buffers wire envelopes addressed to sub-worlds this
	// process has not built with Shrink yet (see net.go). Guarded by wmu.
	pendingWire map[string][]pendingEnv

	// root is the original world this sub-world was shrunk from (nil on the
	// root itself); orig maps this world's dense ranks to original ranks
	// (nil on the root: the identity).
	root *World
	orig []int
	// revoked marks a world unusable after a member rank was declared
	// failed (ULFM's revocation): every pending and future operation on it
	// fails with an error matching ErrRevoked and carrying the
	// *RankFailedError cause.
	revoked     atomic.Bool
	revokeCause atomic.Value

	// wmu guards the registry of this root world and all its sub-worlds
	// (abort, shutdown, and revocation fan out over it).
	wmu    sync.Mutex
	worlds []*World
	subs   map[string]*World

	// Eviction-mode state; see evict.go. Zero unless EnableEviction.
	evict      bool
	hbEvery    time.Duration
	hbMisses   int
	hbStart    time.Time
	emu        sync.Mutex
	econd      *sync.Cond
	lastBeat   []atomic.Int64
	done       []bool
	finishedOK []bool
	exitErr    []error
	exited     []chan struct{}
	failedP    []atomic.Pointer[RankFailedError]
	evictions  []Eviction
	agreeSeq   []int
	// agreeRounds is the agreement coordinator's round registry (see
	// evict.go): shared by every rank in process, rank 0's on a networked
	// world, whose other ranks keep the results rank 0 sent them in
	// netResults. Guarded by emu.
	agreeRounds map[int]*agreeRound
	netResults  map[int][]int
}

// NewWorld creates a world with the given number of ranks. It panics if
// size < 1.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", size))
	}
	w := &World{
		size:       size,
		boxes:      make([]*inbox, size),
		sendCounts: make([]atomic.Uint64, size),
		collCounts: make([]atomic.Uint64, size),
		subs:       make(map[string]*World),
		tr:         procTransport{},
		self:       -1,
	}
	w.worlds = []*World{w}
	for i := range w.boxes {
		w.boxes[i] = newInbox()
	}
	return w
}

// rootW returns the original world this one descends from (itself when it is
// the root).
func (w *World) rootW() *World {
	if w.root != nil {
		return w.root
	}
	return w
}

// origOf maps one of this world's dense ranks to its original rank.
func (w *World) origOf(rank int) int {
	if w.orig == nil {
		return rank
	}
	return w.orig[rank]
}

// contains reports whether the original rank is a member of this world.
func (w *World) contains(orig int) bool {
	if w.orig == nil {
		return orig >= 0 && orig < w.size
	}
	for _, r := range w.orig {
		if r == orig {
			return true
		}
	}
	return false
}

// allWorlds snapshots the root's registry: the root world plus every
// sub-world Shrink has created.
func (w *World) allWorlds() []*World {
	r := w.rootW()
	r.wmu.Lock()
	defer r.wmu.Unlock()
	return append([]*World(nil), r.worlds...)
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes body once per rank, each on its own goroutine, and waits for
// all to finish. If any rank returns an error or panics, the world is
// aborted: pending and future receives on surviving ranks fail with a
// *RankFailedError naming the first rank that died (which still matches
// ErrAborted under errors.Is). Run joins every rank's error with
// errors.Join, in rank order, so a cascading abort cannot mask the root
// cause. A rank whose own error is not itself an abort echo is wrapped in
// *RankFailedError; survivors unwinding on the abort are wrapped as plain
// cascade errors. After all ranks return, receives still pending (on a
// goroutine the body left behind) are released with ErrShutdown.
func (w *World) Run(body func(c *Comm) error) error {
	if w.root != nil {
		panic("mpi: Run on a shrunk sub-world; run the root world")
	}
	if w.self >= 0 {
		panic("mpi: Run on a networked world; use RunLocal")
	}
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	stopHB := w.startHeartbeat()
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			err := runBody(body, &Comm{world: w, rank: rank})
			if w.evict {
				// Eviction mode: a rank's death does not abort the world.
				// Record the exit; the heartbeat monitor (or an explicit
				// markFailed) declares failure, survivors Agree+Shrink.
				errs[rank] = err
				w.rankExited(rank, err)
				return
			}
			if err == nil {
				return
			}
			if errors.Is(err, ErrAborted) {
				// Cascade: this rank is unwinding because another died.
				errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, err)
				w.abortWith(&RankFailedError{Rank: rank, Err: err})
			} else {
				rf := &RankFailedError{Rank: rank, Err: err}
				errs[rank] = rf
				w.abortWith(rf)
			}
		}(r)
	}
	wg.Wait()
	if stopHB != nil {
		stopHB()
	}
	w.shutdown()
	if w.evict {
		return w.resolveEvicted(errs)
	}
	return errors.Join(errs...)
}

// runBody invokes the rank body, converting a panic into an error so
// eviction-mode accounting sees a uniform failure shape.
func runBody(body func(c *Comm) error, c *Comm) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return body(c)
}

// abortWith marks the world failed; the first cause wins and is what every
// blocked receive returns. The cause is published before the aborted flag so
// a sender observing aborted==true always finds the root-cause
// *RankFailedError, never the bare ErrAborted sentinel.
func (w *World) abortWith(cause *RankFailedError) {
	w.cause.CompareAndSwap(nil, cause)
	if w.aborted.CompareAndSwap(false, true) {
		c := w.abortCause()
		for _, sub := range w.allWorlds() {
			for _, ib := range sub.boxes {
				ib.finish(c)
			}
		}
	}
}

// abortCause returns the recorded failure, or ErrAborted during the brief
// window before the CAS winner stores it.
func (w *World) abortCause() error {
	if c, ok := w.rootW().cause.Load().(error); ok {
		return c
	}
	return ErrAborted
}

// shutdown releases receives still pending after every rank has returned —
// on the root and on every sub-world Shrink created: no matching send can
// ever arrive, so letting them block would leak their goroutines for the
// process lifetime.
func (w *World) shutdown() {
	w.shut.Store(true)
	for _, sub := range w.allWorlds() {
		for _, ib := range sub.boxes {
			ib.finish(ErrShutdown)
		}
	}
}

// Comm is one rank's communication handle.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= c.world.size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, c.world.size)
	}
	return nil
}

func (c *Comm) checkUserTag(tag int) error {
	if tag < 0 || tag >= internalTagBase {
		return fmt.Errorf("mpi: user tag %d out of range [0,%d)", tag, internalTagBase)
	}
	return nil
}

// send delivers without tag validation (collectives use internal tags).
// Operation counters, the fault plan, and traffic totals live on the root
// world and are indexed by original rank, so a scripted "rank 2, send 500"
// stays the same event after a Shrink renumbers the survivors.
func (c *Comm) send(dst, tag int, payload any) error {
	if err := c.checkRank(dst); err != nil {
		return err
	}
	nb, err := payloadBytes(payload)
	if err != nil {
		return err
	}
	root := c.world.rootW()
	src := c.world.origOf(c.rank)
	if root.aborted.Load() {
		return c.world.abortCause()
	}
	// The fence outranks the revocation check so a send touching the dead
	// rank reports the specific poisoned endpoint, not just the revocation.
	if root.evict {
		if err := root.sendFence(src, c.world.origOf(dst)); err != nil {
			return err
		}
	}
	if err := c.world.revokeErr(); err != nil {
		return err
	}
	n := root.sendCounts[src].Add(1)
	if p := root.plan; p != nil {
		v := p.onSend(src, n)
		if v.kill {
			return fmt.Errorf("mpi: rank %d killed at send %d: %w", src, n, ErrInjectedFault)
		}
		if v.delay > 0 {
			time.Sleep(v.delay)
			if root.aborted.Load() {
				return c.world.abortCause()
			}
			if err := c.world.revokeErr(); err != nil {
				return err
			}
		}
		if v.drop {
			// The sender transmitted (counters reflect it); the network
			// lost the packet.
			root.accountSend(src, tag, nb)
			return nil
		}
	}
	root.accountSend(src, tag, nb)
	return root.tr.Deliver(c.world, c.rank, dst, tag, payload)
}

// Send delivers payload to dst with the given tag. It is buffered: it
// returns as soon as the message is enqueued. The payload is nil, a
// float64, a []float64 or a []byte — anything else is an error, in process
// and over a transport alike (payloadBytes) — and is shared by reference;
// senders must not mutate it afterwards.
func (c *Comm) Send(dst, tag int, payload any) error {
	if err := c.checkUserTag(tag); err != nil {
		return err
	}
	return c.send(dst, tag, payload)
}

// Recv blocks until a message matching (src, tag) arrives. Use AnySource /
// AnyTag as wildcards. When the world has a default receive deadline
// (World.SetRecvTimeout), it applies.
func (c *Comm) Recv(src, tag int) (Message, error) {
	return c.RecvTimeout(src, tag, 0)
}

// RecvTimeout is Recv with an explicit deadline: if no matching message
// arrives within timeout it returns ErrRecvTimeout. A zero timeout falls
// back to the world's default deadline (unbounded when that is unset too).
func (c *Comm) RecvTimeout(src, tag int, timeout time.Duration) (Message, error) {
	if src != AnySource {
		if err := c.checkRank(src); err != nil {
			return Message{}, err
		}
	}
	if tag != AnyTag {
		if err := c.checkUserTag(tag); err != nil {
			return Message{}, err
		}
	}
	return c.recvDeadline(src, tag, timeout)
}

func (c *Comm) recv(src, tag int) (Message, error) {
	return c.recvDeadline(src, tag, 0)
}

func (c *Comm) recvDeadline(src, tag int, timeout time.Duration) (Message, error) {
	if timeout <= 0 {
		timeout = c.world.recvTimeout
	}
	e, err := c.world.boxes[c.rank].take(src, tag, timeout)
	if err != nil {
		return Message{}, err
	}
	c.accountRecv(e)
	return Message{Source: e.source, Tag: e.tag, Payload: e.payload}, nil
}
