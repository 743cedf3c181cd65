// Package mpi is a message-passing runtime with MPI-like semantics whose
// ranks are goroutines. It is the substrate on which the parallel
// evolutionary-game engine runs, standing in for the C/MPI layer the paper
// used on Blue Gene/L and /P.
//
// Semantics follow MPI where it matters for the algorithm:
//
//   - Send is buffered (never blocks); Recv blocks until a matching message
//     (by source and tag, with wildcards) arrives. Messages from the same
//     (source, tag) pair are non-overtaking, which the collectives below
//     rely on.
//   - Bcast, Reduce, Gather, and Barrier are collectives implemented over
//     point-to-point messages (binomial trees for Bcast, Reduce and
//     Barrier), modelling the Blue Gene collective network the paper uses
//     for pair-selection announcements and global strategy updates. The
//     engine enters only Gather, Bcast and, at a stop, Barrier: a worker's
//     cells go to Nature and Nature's verdict comes back (see DESIGN.md).
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
// SPMD function on every rank with Run. A rank that fails aborts the world;
// recovery is a restart from the latest snapshot (sim.RunParallelResilient,
// egdrun's fleet), never a live repair.
type World struct {
	size    int
	boxes   []*inbox
	aborted atomic.Bool
	// cause is the abort cause (a *RankFailedError), stored once by the
	// CAS winner of abortWith.
	cause atomic.Value
	// sendCounts / collCounts are the per-rank operation counters fault
	// plans key off; deterministic for a deterministic SPMD program.
	sendCounts []atomic.Uint64
	collCounts []atomic.Uint64
	// plan, when non-nil, scripts deterministic fault injection.
	plan *FaultPlan
	// recvTimeout, when non-zero, bounds every blocking receive.
	recvTimeout time.Duration
	// commMetrics, when non-nil, is the per-rank communication accounting
	// EnableMetrics armed (see metrics.go).
	commMetrics []*RankMetrics

	// tr delivers envelopes (the transport seam; see transport.go). The
	// in-process mailbox transport on ordinary worlds; a NetTransport when
	// the world's ranks live in separate processes.
	tr Transport
	// self is the rank this process hosts on a networked world, -1 on
	// in-process worlds (every rank is local).
	self int
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
		tr:         procTransport{},
		self:       -1,
	}
	for i := range w.boxes {
		w.boxes[i] = newInbox()
	}
	return w
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
	if w.self >= 0 {
		panic("mpi: Run on a networked world; use RunLocal")
	}
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			err := runBody(body, &Comm{world: w, rank: rank})
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
	w.shutdown()
	return errors.Join(errs...)
}

// runBody invokes the rank body, converting a panic into an error, so a
// panicking rank aborts the world like an erroring one.
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
		for _, ib := range w.boxes {
			ib.finish(c)
		}
	}
}

// abortCause returns the recorded failure, or ErrAborted during the brief
// window before the CAS winner stores it.
func (w *World) abortCause() error {
	if c, ok := w.cause.Load().(error); ok {
		return c
	}
	return ErrAborted
}

// shutdown releases receives still pending after every rank has returned:
// no matching send can ever arrive, so letting them block would leak their
// goroutines for the process lifetime.
func (w *World) shutdown() {
	for _, ib := range w.boxes {
		ib.finish(ErrShutdown)
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

// send delivers without tag validation (collectives use internal tags),
// after counting the send, consulting the fault plan and booking the
// traffic.
func (c *Comm) send(dst, tag int, payload any) error {
	if err := c.checkRank(dst); err != nil {
		return err
	}
	nb, err := payloadBytes(payload)
	if err != nil {
		return err
	}
	w := c.world
	if w.aborted.Load() {
		return w.abortCause()
	}
	n := w.sendCounts[c.rank].Add(1)
	if p := w.plan; p != nil {
		v := p.onSend(c.rank, n)
		if v.kill {
			return fmt.Errorf("mpi: rank %d killed at send %d: %w", c.rank, n, ErrInjectedFault)
		}
		if v.delay > 0 {
			time.Sleep(v.delay)
			if w.aborted.Load() {
				return w.abortCause()
			}
		}
		if v.drop {
			// The sender transmitted (counters reflect it); the network
			// lost the packet.
			w.accountSend(c.rank, tag, nb)
			return nil
		}
	}
	w.accountSend(c.rank, tag, nb)
	return w.tr.Deliver(w, c.rank, dst, tag, payload)
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
