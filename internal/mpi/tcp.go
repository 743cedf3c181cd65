package mpi

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the cross-process transport: a full-mesh TCP or unix-socket
// backend hardened for real failure. Each process hosts exactly one rank
// of the world; the mesh is wired lower-rank-dials-higher with a
// handshake (rank identity, world size, job id, protocol version) on every
// connection. Reliability is built from three mechanisms:
//
//   - per-frame write deadlines, so a wedged peer cannot block the sender;
//   - reconnect with capped exponential backoff plus jitter, so a severed
//     connection heals without a thundering redial;
//   - per-peer sequence numbers with cumulative acks, resend-on-reconnect,
//     and receiver-side duplicate suppression, so a frame in flight across
//     a connection loss is delivered exactly once.
//
// Failure surfaces through the runtime's existing machinery: a goodbye
// frame attributes a peer's exit (clean vs. error), and a peer that stays
// unreachable past the redial budget is declared failed. Either aborts the
// world exactly as an injected fault does; a stalled peer is caught by the
// receive deadline (World.SetRecvTimeout).

// NetConfig parameterises a NetTransport. Self, Size, Network, and Addrs
// are required; zero durations select the defaults below. The reconnect
// schedule is not configurable: see the DefaultRetry constants.
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
	// DialTimeout bounds one dial attempt.
	DialTimeout time.Duration
	// WriteTimeout is the per-frame write deadline.
	WriteTimeout time.Duration
	// Linger bounds the post-run drain: how long Shutdown waits for a peer
	// that never acknowledges this rank's outstanding frames.
	Linger time.Duration
}

// Default NetConfig durations.
const (
	DefaultDialTimeout  = 1 * time.Second
	DefaultWriteTimeout = 2 * time.Second
	DefaultLinger       = 5 * time.Second
	// errorLinger caps the drain of an error exit: the peers it tells are
	// about to abort, and one that cannot acknowledge — a stopped process,
	// say — must not hold the failure back from a supervisor that watches
	// for exits.
	errorLinger = 100 * time.Millisecond
)

// The reconnect schedule. The delay between dial attempts starts at
// DefaultRetryBase, doubles per attempt, is capped at DefaultRetryCap, and
// gets up to 50% uniform jitter added. A broken connection may spend
// DefaultRetryBudget redialing before the peer is declared lost;
// DefaultStartupBudget is the dial budget while wiring the initial mesh
// (workers of one launch start at different times).
const (
	DefaultRetryBase     = 10 * time.Millisecond
	DefaultRetryCap      = 500 * time.Millisecond
	DefaultRetryBudget   = 3 * time.Second
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
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
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
		t.peers[r] = &peer{t: t, rank: r, dialer: cfg.Self < r}
	}
	return t, nil
}

// Size returns the world size the transport was configured with.
func (t *NetTransport) Size() int { return t.cfg.Size }

// Stats returns the live counter set (read with Snapshot).
func (t *NetTransport) Stats() *TransportStats { return &t.stats }

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

	errCh := make(chan error, t.cfg.Size)
	var dials sync.WaitGroup
	for r := t.cfg.Self + 1; r < t.cfg.Size; r++ {
		dials.Add(1)
		go func(p *peer) {
			defer dials.Done()
			errCh <- p.dialOnce(DefaultStartupBudget)
		}(t.peers[r])
	}
	dials.Wait()
	close(errCh)
	for e := range errCh {
		if e != nil {
			return e
		}
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
// hello (protocol version is checked by the frame decoder itself).
func (t *NetTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			select {
			case <-t.stopCh:
				return
			default:
				continue
			}
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handleIncoming(conn)
		}()
	}
}

func (t *NetTransport) handleIncoming(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout + t.cfg.WriteTimeout))
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
	if err := conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout)); err != nil {
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
// transport); remote envelopes are encoded and sent reliably.
func (t *NetTransport) Deliver(w *World, src, dst, tag int, payload any) error {
	if dst == t.cfg.Self {
		w.boxes[dst].put(envelope{source: src, tag: tag, payload: payload})
		return nil
	}
	body, err := encodePayload(payload)
	if err != nil {
		return err
	}
	return t.peers[dst].sendReliable(&frame{
		Kind: frameData, Src: int32(src), Dst: int32(dst), Tag: int64(tag), Payload: body,
	})
}

// Shutdown announces the hosted rank's exit to every reachable peer, waits
// until each has acknowledged everything sent to it (Linger bounds the wait
// for a peer that never does, errorLinger an error exit's), and tears the
// mesh down. A peer that already said goodbye gets none back: it is not
// listening. It is the clean half of exit attribution: a peer that receives
// the goodbye knows whether this rank finished OK or with which error; a
// peer that never does will diagnose a vanished rank from its silence.
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
		if p == nil {
			continue
		}
		p.mu.Lock()
		skip := p.done || p.lost
		p.mu.Unlock()
		if skip {
			continue
		}
		f := bye // each peer numbers its own copy
		_ = p.sendReliable(&f)
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
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	t.wg.Wait()
	if t.cfg.Network == "unix" {
		_ = os.Remove(t.cfg.Addrs[t.cfg.Self])
	}
}

// DropConns severs every live connection without telling the peers — the
// chaos harness's network cut. The reliability layer (redial with backoff
// on the dialing side, resend of unacked frames, duplicate suppression)
// must recover transparently.
func (t *NetTransport) DropConns() {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
}

// peer is the per-remote-rank endpoint: one connection (replaced on
// reconnect), the reliable-send queue, and the receive-side sequence
// state for duplicate suppression.
type peer struct {
	t      *NetTransport
	rank   int
	dialer bool // this side dials (lower rank dials higher)

	// wmu orders sequenced writes: a reliable frame takes its number and
	// reaches the wire, and a reconnect's resend runs, inside one wmu
	// section each, so frames hit the stream in sequence order. It is
	// taken before mu, and mu is never held across socket I/O — the read
	// loop needs mu to process the acks that let a blocked writer proceed.
	wmu  sync.Mutex
	mu   sync.Mutex
	conn net.Conn
	// sendSeq numbers reliable frames; unacked holds them, ascending,
	// until the peer's cumulative ack covers them.
	sendSeq uint64
	unacked []*frame
	// lastRecv is the highest reliable sequence processed from this peer:
	// anything at or below it is a duplicate (a resend racing an ack).
	lastRecv uint64
	// done: peer said goodbye. lost: peer declared unreachable after the
	// redial budget. redialing: a backoff loop is in flight.
	done      bool
	lost      bool
	redialing bool
	everConn  bool
}

// waitConnected blocks until the peer's first connection has been installed
// — has been, not is: a peer with nothing to wait for may dial in, run its
// whole body, say goodbye and hang up between two polls.
func (p *peer) waitConnected(deadline time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.everConn {
		if p.t.closed.Load() {
			return errors.New("mpi: transport closed while wiring mesh")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mpi: rank %d never connected within the startup budget", p.rank)
		}
		p.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		p.mu.Lock()
	}
	return nil
}

// dialOnce dials the peer within budget, performing the hello/welcome
// handshake, with capped exponential backoff plus jitter between
// attempts. Used both for initial wiring and for reconnects.
func (p *peer) dialOnce(budget time.Duration) error {
	t := p.t
	deadline := time.Now().Add(budget)
	backoff := DefaultRetryBase
	for {
		if t.closed.Load() {
			return errors.New("mpi: transport closed")
		}
		p.mu.Lock()
		stop := p.done || p.lost
		p.mu.Unlock()
		if stop {
			return nil
		}
		conn, err := net.DialTimeout(t.cfg.Network, t.cfg.Addrs[p.rank], t.cfg.DialTimeout)
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
			return fmt.Errorf("mpi: rank %d unreachable at %s after %v of redials: %w",
				p.rank, t.cfg.Addrs[p.rank], budget, err)
		}
		// Full jitter on the upper half keeps simultaneous redials from
		// synchronising into a thundering herd.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		time.Sleep(sleep)
		backoff *= 2
		if backoff > DefaultRetryCap {
			backoff = DefaultRetryCap
		}
	}
}

// handshake runs the dialer side: hello out, welcome back, identity
// checked.
func (p *peer) handshake(conn net.Conn) error {
	t := p.t
	if err := t.writeHandshake(conn, frameHello); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout + t.cfg.WriteTimeout))
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

// install adopts a fresh connection: the previous one (if any) is closed,
// a read loop is spawned, and every unacked reliable frame is resent in
// sequence order — the receiver's duplicate suppression discards the ones
// that did arrive before the cut. The read loop starts first, so the acks
// the resend earns are consumed while it is still being written.
func (p *peer) install(conn net.Conn) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.mu.Lock()
	if p.t.closed.Load() {
		p.mu.Unlock()
		conn.Close()
		return
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	if p.everConn {
		p.t.stats.Reconnects.Add(1)
	}
	p.everConn = true
	resend := append([]*frame(nil), p.unacked...)
	p.mu.Unlock()
	p.t.wg.Add(1)
	go func() {
		defer p.t.wg.Done()
		p.readLoop(conn)
	}()
	for _, f := range resend {
		if err := p.t.writeFrame(conn, f); err != nil {
			break
		}
	}
	if len(resend) > 0 {
		p.t.stats.Resends.Add(uint64(len(resend)))
	}
}

// sendReliable queues a sequenced frame and transmits it on the live
// connection; a broken connection only delays it (resend-on-reconnect
// delivers). It errors only when the peer can never receive it.
func (p *peer) sendReliable(f *frame) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.mu.Lock()
	if p.lost {
		p.mu.Unlock()
		return fmt.Errorf("mpi: rank %d is unreachable", p.rank)
	}
	if p.t.closed.Load() {
		p.mu.Unlock()
		return errors.New("mpi: transport closed")
	}
	p.sendSeq++
	f.Seq = p.sendSeq
	p.unacked = append(p.unacked, f)
	conn := p.conn
	p.mu.Unlock()
	if conn == nil || p.t.writeFrame(conn, f) != nil {
		p.connBroken(conn)
	}
	return nil
}

// connBroken retires a failed connection (idempotently) and, on the
// dialing side, starts the backoff reconnect loop. The accepting side
// waits for the dialer to come back; if the peer is truly gone, a lower
// rank declares it lost after the redial budget, and the abort reaches this
// side in that rank's goodbye — unless a receive deadline fires first.
func (p *peer) connBroken(conn net.Conn) {
	t := p.t
	if t.closed.Load() {
		return
	}
	p.mu.Lock()
	if conn != nil {
		if p.conn != conn {
			p.mu.Unlock()
			return
		}
		conn.Close()
		p.conn = nil
	}
	startRedial := p.dialer && !p.redialing && !p.done && !p.lost && p.conn == nil
	if startRedial {
		p.redialing = true
	}
	p.mu.Unlock()
	if !startRedial {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		err := p.dialOnce(DefaultRetryBudget)
		p.mu.Lock()
		p.redialing = false
		p.mu.Unlock()
		if err != nil && !t.closed.Load() {
			p.markLost(err)
		}
	}()
}

// markLost declares the peer unreachable: the world aborts.
func (p *peer) markLost(err error) {
	p.mu.Lock()
	if p.lost || p.done {
		p.mu.Unlock()
		return
	}
	p.lost = true
	p.mu.Unlock()
	p.t.world.peerLost(p.rank, err)
}

// handleAck prunes the reliable queue through the cumulative ack.
func (p *peer) handleAck(cum uint64) {
	p.mu.Lock()
	i := 0
	for i < len(p.unacked) && p.unacked[i].Seq <= cum {
		i++
	}
	if i > 0 {
		p.unacked = append(p.unacked[:0], p.unacked[i:]...)
	}
	p.mu.Unlock()
}

// drain waits until the peer has acknowledged every reliable frame,
// bounded by deadline. The peer's own goodbye is not waited for: nothing
// this rank sent is outstanding, and peers do not redial a rank that said
// goodbye. It also ends once no ack can come, or matter, any more: the peer
// is lost, or it said goodbye and hung up.
func (p *peer) drain(deadline time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		gone := p.lost || (p.done && p.conn == nil)
		if gone || len(p.unacked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			return
		}
		p.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		p.mu.Lock()
	}
}

// readLoop decodes frames off one connection and dispatches them.
// Reliable frames pass through duplicate suppression (a resend racing the
// ack it already earned) and strict in-order sequencing; a sequence gap
// means the streams diverged, so the connection is dropped and the
// resend machinery re-synchronises.
func (p *peer) readLoop(conn net.Conn) {
	t := p.t
	br := bufio.NewReader(conn)
	for {
		f, err := readFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				t.stats.DecodeErrs.Add(1)
			}
			p.connBroken(conn)
			return
		}
		t.stats.FramesRecv.Add(1)
		t.stats.BytesRecv.Add(uint64(frameHeaderLen + len(f.Payload)))
		if !f.Kind.reliable() {
			if f.Kind == frameAck {
				p.handleAck(f.Seq)
			}
			continue
		}
		p.mu.Lock()
		if f.Seq <= p.lastRecv {
			p.mu.Unlock()
			t.stats.DupsDropped.Add(1)
			p.writeAck(conn)
			continue
		}
		if f.Seq != p.lastRecv+1 {
			p.mu.Unlock()
			p.connBroken(conn)
			return
		}
		p.lastRecv = f.Seq
		p.mu.Unlock()
		p.writeAck(conn)
		p.dispatch(f)
	}
}

// writeAck sends the cumulative ack for everything processed so far.
func (p *peer) writeAck(conn net.Conn) {
	p.mu.Lock()
	cum := p.lastRecv
	p.mu.Unlock()
	if err := p.t.writeFrame(conn, &frame{Kind: frameAck, Src: int32(p.t.cfg.Self), Seq: cum}); err != nil {
		p.connBroken(conn)
	}
}

// dispatch routes one de-duplicated reliable frame into the world.
func (p *peer) dispatch(f *frame) {
	t := p.t
	switch f.Kind {
	case frameData:
		v, err := decodePayload(f.Payload)
		if err != nil {
			p.protocolError(err)
			return
		}
		t.world.deliverRemote(int(f.Src), int(f.Dst), int(f.Tag), v)
	case frameGoodbye:
		p.mu.Lock()
		p.done = true
		p.mu.Unlock()
		t.world.peerExited(p.rank, int(f.Dst), f.Tag&goodbyeOK != 0, string(f.Payload))
	}
}

// protocolError handles an acknowledged frame whose body does not decode.
// The handshake admitted only peers speaking this codec version, so the
// sender is broken, and the frame — already acked — will never be resent:
// the peer is declared failed — the world aborts — rather than leaving the
// destination rank waiting for a message that is gone.
func (p *peer) protocolError(err error) {
	p.t.stats.DecodeErrs.Add(1)
	p.markLost(fmt.Errorf("mpi: undecodable frame from rank %d: %w", p.rank, err))
}

// isClosedConn reports the "use of closed network connection" error shape
// produced by closing a conn out from under its reader.
func isClosedConn(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return true
	}
	return err != nil && strings.Contains(err.Error(), "use of closed network connection")
}
