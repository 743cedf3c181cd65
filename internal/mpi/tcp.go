package mpi

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the cross-process transport: a full-mesh TCP or unix-socket
// backend. Each process hosts exactly one rank of the world; the mesh is
// wired lower-rank-dials-higher with a handshake (rank identity, world size,
// job id, protocol version) on every connection, and each pair of ranks
// keeps the connection the mesh wired for the whole run. The stream is in
// order, so frames need no sequence numbers and no acknowledgements: the
// one ack answers a goodbye, and covers everything sent before it.
//
// The wire delivers or fails. A goodbye frame attributes a peer's exit
// (clean vs. error); a connection that ends before the peer's goodbye, a
// write that fails, or a stream that does not decode fails the peer at
// once. Either aborts the world exactly as an injected fault does, and
// recovery is a restart from the latest snapshot (RunParallelResilient,
// egdrun's fleet). Per-frame write deadlines keep a wedged peer from
// blocking the sender; a stalled peer is caught by the receive deadline
// (World.SetRecvTimeout).

// NetConfig parameterises a NetTransport. Self, Size, Network, and Addrs
// are required; a zero Linger selects DefaultLinger. The deadlines and the
// dial schedule are not configurable: see the constants below.
type NetConfig struct {
	// Self is the rank this process hosts.
	Self int
	// Size is the world size; len(Addrs) must equal it.
	Size int
	// Network is "unix" or "tcp".
	Network string
	// Addrs[i] is the listen address of the process hosting rank i.
	Addrs []string
	// Job is an opaque run identity checked at handshake, so a stray
	// worker from another launch cannot join the mesh.
	Job string
	// Linger bounds the post-run drain: how long Shutdown waits for a peer
	// that never acknowledges this rank's goodbye.
	Linger time.Duration
}

// The wire's deadlines: dialTimeout bounds one dial attempt, writeTimeout
// each frame's write, and their sum a new connection's hello.
// DefaultLinger is what a zero NetConfig.Linger selects.
const (
	dialTimeout   = 1 * time.Second
	writeTimeout  = 2 * time.Second
	DefaultLinger = 5 * time.Second
	// errorLinger caps the drain of an error exit: the peers it tells are
	// about to abort, and one that cannot acknowledge — a stopped process,
	// say — must not hold the failure back from a supervisor that watches
	// for exits.
	errorLinger = 100 * time.Millisecond
)

// The dial schedule while wiring the mesh (workers of one launch start at
// different times). The delay between dial attempts starts at
// DefaultRetryBase, doubles per attempt, is capped at DefaultRetryCap, and
// gets up to 50% uniform jitter added; a peer not reached within
// DefaultStartupBudget fails Start. Once the mesh is up nothing is dialed
// again.
const (
	DefaultRetryBase     = 10 * time.Millisecond
	DefaultRetryCap      = 500 * time.Millisecond
	DefaultStartupBudget = 10 * time.Second
)

func (c *NetConfig) norm() error {
	if c.Size < 1 {
		return fmt.Errorf("mpi: net world size %d < 1", c.Size)
	}
	if c.Self < 0 || c.Self >= c.Size {
		return fmt.Errorf("mpi: net self rank %d out of [0,%d)", c.Self, c.Size)
	}
	if c.Network != "unix" && c.Network != "tcp" {
		return fmt.Errorf("mpi: net network %q (want unix or tcp)", c.Network)
	}
	if len(c.Addrs) != c.Size {
		return fmt.Errorf("mpi: %d addrs for %d ranks", len(c.Addrs), c.Size)
	}
	if c.Linger <= 0 {
		c.Linger = DefaultLinger
	}
	return nil
}

// NetTransport is the TCP/unix-socket Transport. Create with
// NewNetTransport, attach a world with NewNetWorld, wire the mesh with
// Start, run the hosted rank with World.RunLocal.
type NetTransport struct {
	cfg   NetConfig
	world *World
	ln    net.Listener
	peers []*peer
	stats TransportStats

	closed atomic.Bool
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewNetTransport validates cfg and builds the (not yet wired) transport.
func NewNetTransport(cfg NetConfig) (*NetTransport, error) {
	if err := cfg.norm(); err != nil {
		return nil, err
	}
	t := &NetTransport{cfg: cfg, stopCh: make(chan struct{})}
	t.peers = make([]*peer, cfg.Size)
	for r := 0; r < cfg.Size; r++ {
		if r == cfg.Self {
			continue
		}
		t.peers[r] = &peer{t: t, rank: r}
		t.peers[r].changed.L = &t.peers[r].mu
	}
	return t, nil
}

// Size returns the world size the transport was configured with.
func (t *NetTransport) Size() int { return t.cfg.Size }

// bind attaches the transport to its world (NewNetWorld).
func (t *NetTransport) bind(w *World) { t.world = w }

// Start listens on the hosted rank's address and wires the mesh: this
// side dials every higher rank (with backoff, within DefaultStartupBudget) and
// accepts connections from every lower rank. It returns once every peer
// is connected, or with the first wiring error.
func (t *NetTransport) Start() error {
	if t.world == nil {
		return errors.New("mpi: NetTransport.Start before NewNetWorld")
	}
	addr := t.cfg.Addrs[t.cfg.Self]
	if t.cfg.Network == "unix" {
		// A stale socket file from a previous run blocks the bind.
		_ = os.Remove(addr)
	}
	ln, err := net.Listen(t.cfg.Network, addr)
	if err != nil {
		return fmt.Errorf("mpi: rank %d listen %s %s: %w", t.cfg.Self, t.cfg.Network, addr, err)
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()

	// Dial every higher rank at once; the first dial error fails Start.
	errCh := make(chan error, t.cfg.Size)
	for r := t.cfg.Self + 1; r < t.cfg.Size; r++ {
		go func() { errCh <- t.peers[r].dial() }()
	}
	for r := t.cfg.Self + 1; r < t.cfg.Size; r++ {
		err = cmp.Or(err, <-errCh)
	}
	if err != nil {
		return err
	}
	// Wait for every lower rank to dial in.
	deadline := time.Now().Add(DefaultStartupBudget)
	for r := 0; r < t.cfg.Self; r++ {
		if err := t.peers[r].waitConnected(deadline); err != nil {
			return err
		}
	}
	return nil
}

// acceptLoop admits incoming connections: each must open with a valid
// hello (protocol version is checked by the frame decoder itself). A
// failed Accept is retried after a pause — 5 ms, doubling to 1 s, as
// net/http.Server does — so a persistent error such as EMFILE does not pin
// a core.
func (t *NetTransport) acceptLoop() {
	defer t.wg.Done()
	var pause time.Duration
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			select {
			case <-t.stopCh:
				return
			case <-time.After(pause):
				continue
			}
		}
		pause = 0
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handleIncoming(conn)
		}()
	}
}

func (t *NetTransport) handleIncoming(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(dialTimeout + writeTimeout))
	f, err := readFrame(conn)
	if err != nil || f.Kind != frameHello {
		conn.Close()
		return
	}
	if !t.sameJob(f) || f.Src < 0 || int(f.Src) >= t.cfg.Self {
		// Identity mismatch, or a violation of the lower-rank-dials-higher
		// convention: reject before the connection joins the mesh.
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if err := t.writeHandshake(conn, frameWelcome); err != nil {
		conn.Close()
		return
	}
	t.peers[f.Src].install(conn)
}

// writeHandshake sends this side's identity as a hello or welcome frame.
func (t *NetTransport) writeHandshake(conn net.Conn, kind frameKind) error {
	return t.writeFrame(conn, &frame{Kind: kind, Src: int32(t.cfg.Self), Dst: int32(t.cfg.Size), Payload: []byte(t.cfg.Job)})
}

// sameJob reports whether a hello or welcome frame names this side's world
// size and job id.
func (t *NetTransport) sameJob(f *frame) bool {
	return int(f.Dst) == t.cfg.Size && string(f.Payload) == t.cfg.Job
}

// writeFrame encodes and writes one frame under the per-frame deadline.
func (t *NetTransport) writeFrame(conn net.Conn, f *frame) error {
	b, err := encodeFrame(f)
	if err != nil {
		return err
	}
	if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(b); err != nil {
		return err
	}
	t.stats.FramesSent.Add(1)
	t.stats.BytesSent.Add(uint64(len(b)))
	return nil
}

// Deliver implements Transport: loopback envelopes go straight to the
// local inbox (sharing the payload by reference, like the in-process
// transport); remote envelopes are encoded and written to the peer's
// connection.
func (t *NetTransport) Deliver(w *World, src, dst, tag int, payload any) error {
	if dst == t.cfg.Self {
		w.boxes[dst].put(envelope{source: src, tag: tag, payload: payload})
		return nil
	}
	body, err := encodePayload(payload)
	if err != nil {
		return err
	}
	return t.peers[dst].send(&frame{
		Kind: frameData, Src: int32(src), Dst: int32(dst), Tag: int64(tag), Payload: body,
	})
}

// Shutdown announces the hosted rank's exit to every connected peer, waits
// until each has acknowledged the goodbye — and with it, the stream being
// in order, everything sent before it (Linger bounds the wait for a peer
// that never does, errorLinger an error exit's) — and tears the mesh down.
// A peer that already said goodbye gets none back: it is not listening. It
// is the clean half of exit attribution: a peer that receives the goodbye
// knows whether this rank finished OK or with which error; a peer that
// never does sees the connection end first and fails this rank.
func (t *NetTransport) Shutdown(status error) {
	bye := frame{Kind: frameGoodbye, Src: int32(t.cfg.Self), Tag: goodbyeOK}
	if status != nil {
		// Blame the rank whose failure this one unwound on, with that
		// failure's error, if there is one.
		blamed, cause := t.cfg.Self, status
		if rf := (*RankFailedError)(nil); errors.As(status, &rf) && rf.Err != nil {
			blamed, cause = rf.Rank, rf.Err
		}
		bye.Tag, bye.Dst, bye.Payload = 0, int32(blamed), []byte(cause.Error())
	}
	for _, p := range t.peers {
		if p != nil {
			_ = p.send(&bye)
		}
	}
	linger := t.cfg.Linger
	if status != nil {
		linger = min(linger, errorLinger)
	}
	deadline := time.Now().Add(linger)
	for _, p := range t.peers {
		if p != nil {
			p.drain(deadline)
		}
	}
	t.close()
}

// close releases every connection and the listener without a goodbye
// (Shutdown's final step, and the test harness's simulated hard crash).
func (t *NetTransport) close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	close(t.stopCh)
	// Wake the peers first. That ends a Start waiting on one of them, and
	// taking its lock orders the listener and wait group Start set up
	// before the reads below.
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.update(func() {
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
		})
	}
	if t.ln != nil {
		t.ln.Close()
	}
	t.wg.Wait()
	if t.cfg.Network == "unix" {
		_ = os.Remove(t.cfg.Addrs[t.cfg.Self])
	}
}

// peer is the per-remote-rank endpoint: the one connection the mesh wired
// to it, and where the exchange of goodbyes stands.
type peer struct {
	t    *NetTransport
	rank int

	// wmu keeps frames whole and in send order on the stream; mu guards
	// the rest and is never held across socket I/O. changed, on mu, is
	// broadcast whenever conn or a flag below changes and when the
	// transport closes: every wait on the peer (await) wakes on it.
	wmu     sync.Mutex
	mu      sync.Mutex
	changed sync.Cond
	conn    net.Conn
	// connected: the mesh wired this peer. done: it said goodbye. acked:
	// it acknowledged this rank's goodbye. lost: it failed.
	connected bool
	done      bool
	acked     bool
	lost      bool
}

// waitConnected blocks until the peer's connection has been installed —
// has been, not is: a peer with nothing to wait for may dial in, run its
// whole body, say goodbye and hang up before this side looks.
func (p *peer) waitConnected(deadline time.Time) error {
	switch {
	case p.await(deadline, func() bool { return p.connected }):
		return nil
	case p.t.closed.Load():
		return errors.New("mpi: transport closed while wiring mesh")
	}
	return fmt.Errorf("mpi: rank %d never connected within the startup budget", p.rank)
}

// await blocks until ready, evaluated under mu, holds, the transport
// closes, or deadline passes, and reports whether ready holds. It wakes on
// the event itself: every change ready can see is broadcast on changed, and
// a timer broadcasts the deadline.
func (p *peer) await(deadline time.Time, ready func() bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	expired := false
	timer := time.AfterFunc(time.Until(deadline), func() { p.update(func() { expired = true }) })
	defer timer.Stop()
	for !ready() && !expired && !p.t.closed.Load() {
		p.changed.Wait()
	}
	return ready()
}

// update applies change under mu and wakes every wait on the peer.
func (p *peer) update(change func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	change()
	p.changed.Broadcast()
}

// dial connects to the peer within DefaultStartupBudget, performing the
// hello/welcome handshake, with capped exponential backoff plus jitter
// between attempts.
func (p *peer) dial() error {
	t := p.t
	deadline := time.Now().Add(DefaultStartupBudget)
	backoff := DefaultRetryBase
	for {
		if t.closed.Load() {
			return errors.New("mpi: transport closed")
		}
		conn, err := net.DialTimeout(t.cfg.Network, t.cfg.Addrs[p.rank], dialTimeout)
		if err == nil {
			err = p.handshake(conn)
			if err == nil {
				p.install(conn)
				return nil
			}
			conn.Close()
		}
		t.stats.Redials.Add(1)
		if time.Now().After(deadline) {
			return fmt.Errorf("mpi: rank %d unreachable at %s after %v of dialing: %w",
				p.rank, t.cfg.Addrs[p.rank], DefaultStartupBudget, err)
		}
		// Full jitter on the upper half keeps simultaneous dials from
		// synchronising into a thundering herd.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		time.Sleep(sleep)
		backoff = min(2*backoff, DefaultRetryCap)
	}
}

// handshake runs the dialer side: hello out, welcome back, identity
// checked.
func (p *peer) handshake(conn net.Conn) error {
	t := p.t
	if err := t.writeHandshake(conn, frameHello); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(dialTimeout + writeTimeout))
	f, err := readFrame(conn)
	if err != nil {
		return err
	}
	if f.Kind != frameWelcome {
		return fmt.Errorf("mpi: handshake with rank %d: got %v, want welcome", p.rank, f.Kind)
	}
	if int(f.Src) != p.rank || !t.sameJob(f) {
		return fmt.Errorf("mpi: handshake with rank %d: identity mismatch", p.rank)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return nil
}

// install adopts the peer's connection and spawns its read loop. The mesh
// wires each pair once: a second connection for the same peer is refused.
func (p *peer) install(conn net.Conn) {
	p.mu.Lock()
	if p.t.closed.Load() || p.connected {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.conn, p.connected = conn, true
	p.changed.Broadcast()
	p.mu.Unlock()
	p.t.wg.Add(1)
	go func() {
		defer p.t.wg.Done()
		p.readLoop(conn)
	}()
}

// send writes a data or goodbye frame to the peer. A peer that said
// goodbye is past hearing it, so the frame is dropped; a write that fails
// fails the peer, and the send returns that failure.
func (p *peer) send(f *frame) error {
	p.mu.Lock()
	conn, done, lost := p.conn, p.done, p.lost
	p.mu.Unlock()
	switch {
	case lost:
		return p.t.world.abortCause()
	case done:
		return nil
	case conn == nil:
		return fmt.Errorf("mpi: rank %d is not connected", p.rank)
	}
	if err := p.write(conn, f); err != nil {
		rf := &RankFailedError{Rank: p.rank, Err: fmt.Errorf("mpi: write to rank %d: %w", p.rank, err)}
		p.fail(conn, rf.Err)
		return rf
	}
	return nil
}

// write puts one frame on conn under the peer's write lock.
func (p *peer) write(conn net.Conn, f *frame) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.t.writeFrame(conn, f)
}

// fail retires the peer's connection and, unless the peer said goodbye
// first or this side is closing, declares the peer failed: the world
// aborts naming it.
func (p *peer) fail(conn net.Conn, cause error) {
	conn.Close()
	var lost bool
	p.update(func() {
		p.conn, lost = nil, !p.done && !p.lost && !p.t.closed.Load()
		p.lost = p.lost || lost
	})
	if lost {
		p.t.world.peerLost(p.rank, cause)
	}
}

// drain waits until the peer has acknowledged this rank's goodbye, bounded
// by deadline. It also ends once no ack can come, or matter, any more: the
// connection is gone (the peer failed, or was never wired), or the peer
// said goodbye itself — the read loop acknowledged that goodbye before
// marking the peer done, so nothing the peer waits on is outstanding.
func (p *peer) drain(deadline time.Time) {
	p.await(deadline, func() bool { return p.conn == nil || p.acked || p.done })
}

// readLoop decodes frames off the peer's connection and dispatches them in
// stream order until the connection ends. An end after the peer's goodbye
// is its hang-up; any other — EOF, a reset, a frame that does not decode —
// fails the peer.
func (p *peer) readLoop(conn net.Conn) {
	t := p.t
	br := bufio.NewReader(conn)
	for {
		f, err := readFrame(br)
		if err != nil {
			var ne net.Error
			if !errors.Is(err, io.EOF) && !errors.As(err, &ne) {
				t.stats.DecodeErrs.Add(1)
			}
			p.fail(conn, fmt.Errorf("mpi: connection to rank %d failed before its goodbye: %w", p.rank, err))
			return
		}
		t.stats.FramesRecv.Add(1)
		t.stats.BytesRecv.Add(uint64(frameHeaderLen + len(f.Payload)))
		if err := p.dispatch(conn, f); err != nil {
			t.stats.DecodeErrs.Add(1)
			p.fail(conn, err)
			return
		}
	}
}

// dispatch routes one frame into the world. A data frame whose body does
// not decode is an error: the handshake admitted only peers speaking this
// codec version, so the sender is broken, and the destination rank must
// not wait for a message that is gone.
func (p *peer) dispatch(conn net.Conn, f *frame) error {
	t := p.t
	switch f.Kind {
	case frameData:
		v, err := decodePayload(f.Payload)
		if err != nil {
			return fmt.Errorf("mpi: undecodable frame from rank %d: %w", p.rank, err)
		}
		t.world.deliverRemote(int(f.Src), int(f.Dst), int(f.Tag), v)
	case frameGoodbye:
		// Acknowledge before marking the peer done, so this side's drain,
		// which ends on done, cannot close the connection ahead of the ack.
		// A failed ack is the peer's hang-up: it has left already.
		_ = p.write(conn, &frame{Kind: frameAck, Src: int32(t.cfg.Self)})
		p.update(func() { p.done = true })
		t.world.peerExited(p.rank, int(f.Dst), f.Tag&goodbyeOK != 0, string(f.Payload))
	case frameAck:
		p.update(func() { p.acked = true })
	default:
		return fmt.Errorf("mpi: %v frame from rank %d after the handshake", f.Kind, p.rank)
	}
	return nil
}
