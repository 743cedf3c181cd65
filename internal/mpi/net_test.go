package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// netMesh builds the NetConfigs for an n-rank unix-socket mesh rooted in a
// test temp dir.
func netMesh(t *testing.T, n int) []NetConfig {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	cfgs := make([]NetConfig, n)
	for i := range cfgs {
		cfgs[i] = NetConfig{
			Self:    i,
			Size:    n,
			Network: "unix",
			Addrs:   addrs,
			Job:     t.Name(),
		}
	}
	return cfgs
}

// newNetTransports builds one transport per rank of the mesh. Tests that
// need the transports inside rank bodies (severing, stats) create them
// first so the closures can capture the slice.
func newNetTransports(t *testing.T, cfgs []NetConfig) []*NetTransport {
	t.Helper()
	trs := make([]*NetTransport, len(cfgs))
	for i := range cfgs {
		tr, err := NewNetTransport(cfgs[i])
		if err != nil {
			t.Fatalf("rank %d transport: %v", i, err)
		}
		trs[i] = tr
	}
	return trs
}

// runNetWorlds hosts each rank of the mesh on its own goroutine — each with
// its own transport and world, communicating only over the sockets — and
// returns the per-rank RunLocal errors.
func runNetWorlds(t *testing.T, trs []*NetTransport, setup func(w *World), body func(c *Comm) error) []error {
	t.Helper()
	n := len(trs)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w := NewNetWorld(trs[rank])
			if setup != nil {
				setup(w)
			}
			if err := trs[rank].Start(); err != nil {
				errs[rank] = err
				trs[rank].Shutdown(err)
				return
			}
			errs[rank] = w.RunLocal(body)
		}(i)
	}
	wg.Wait()
	return errs
}

// The transport parity baseline: point-to-point sends and every collective
// produce the same values over the wire as in-process.
func TestNetWorldPointToPointAndCollectives(t *testing.T) {
	trs := newNetTransports(t, netMesh(t, 3))
	errs := runNetWorlds(t, trs, nil, func(c *Comm) error {
		n := c.Size()
		// Ring exchange.
		if err := c.Send((c.Rank()+1)%n, 7, float64(c.Rank())); err != nil {
			return fmt.Errorf("ring send: %w", err)
		}
		// A payload outside the four kinds is refused here as in process.
		if err := c.Send((c.Rank()+1)%n, 7, c.Rank()); err == nil || !strings.Contains(err.Error(), "int") { // deliberate orphan: refused, never delivered
			return fmt.Errorf("Send(int) over the mesh: %v, want an error naming the type", err)
		}
		m, err := c.Recv((c.Rank()+n-1)%n, 7)
		if err != nil {
			return fmt.Errorf("ring recv: %w", err)
		}
		if m.(float64) != float64((c.Rank()+n-1)%n) {
			return fmt.Errorf("ring got %v", m)
		}
		// Broadcast.
		got, err := c.Bcast(0, []byte("hello"))
		if err != nil {
			return fmt.Errorf("bcast: %w", err)
		}
		if string(got.([]byte)) != "hello" {
			return fmt.Errorf("bcast got %v", got)
		}
		// Reduction.
		sum, err := c.Reduce(0, float64(c.Rank()), OpSum)
		if err != nil {
			return fmt.Errorf("reduce: %w", err)
		}
		if c.Rank() == 0 && sum != 3 {
			return fmt.Errorf("reduce got %v", sum)
		}
		// Gather.
		vals, err := c.Gather(0, []float64{float64(c.Rank()), 0.5})
		if err != nil {
			return fmt.Errorf("gather: %w", err)
		}
		if c.Rank() == 0 {
			for i, v := range vals {
				if f := v.([]float64); len(f) != 2 || f[0] != float64(i) || f[1] != 0.5 {
					return fmt.Errorf("gather got %v", vals)
				}
			}
		}
		return c.Barrier()
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// cut closes this side's connection to peer without telling anyone: a
// network cut as one end sees it.
func cut(tr *NetTransport, peer int) {
	p := tr.peers[peer]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.Close()
}

// A connection cut mid-stream is a failed rank at both ends: nothing is
// redialed or resent, each side aborts at once naming the other, and
// neither books the cut as a decode error.
func TestNetWorldSeveredConnectionAborts(t *testing.T) {
	const msgs = 120
	trs := newNetTransports(t, netMesh(t, 2))
	errs := runNetWorlds(t, trs, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 5, float64(i)); err != nil {
					return err
				}
				time.Sleep(time.Millisecond)
			}
			_, err := c.Recv(1, 6)
			return err
		}
		for i := 0; i < msgs; i++ {
			if _, err := c.Recv(0, 5); err != nil {
				return err
			}
			if i == msgs/3 {
				cut(trs[1], 0)
			}
		}
		return c.Send(0, 6, float64(msgs))
	})
	for r, err := range errs {
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 1-r {
			t.Errorf("rank %d returned %v, want the *RankFailedError of rank %d", r, err, 1-r)
		}
		if n := trs[r].stats.Snapshot().DecodeErrs; n != 0 {
			t.Errorf("rank %d: decode_errs = %d after a cut", r, n)
		}
	}
}

// lockstep is a networked rank's body for the failure tests: gens
// generations of a gather at rank 0 and a barrier, with die consulted at
// the top of each — a non-nil error ends the rank there.
func lockstep(gens int, die func(c *Comm, g int) error) func(c *Comm) error {
	return func(c *Comm) error {
		for g := 0; g < gens; g++ {
			if err := die(c, g); err != nil {
				return err
			}
			if c.Rank() == 0 {
				for src := 1; src < c.Size(); src++ {
					if _, err := c.Recv(src, 7); err != nil {
						return err
					}
				}
			} else if err := c.Send(0, 7, float64(g)); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	}
}

// A rank erroring out over the wire aborts the others with its own error,
// which its goodbye frame carries — the in-process abort, across processes.
// Rank 1 hears it from rank 2, or from rank 0 unwinding on it: either way
// the cause blames rank 2.
func TestNetWorldErrorExitAbortsTheOthers(t *testing.T) {
	boom := errors.New("boom")
	trs := newNetTransports(t, netMesh(t, 3))
	errs := runNetWorlds(t, trs, nil, lockstep(8, func(c *Comm, g int) error {
		if c.Rank() == 2 && g == 3 {
			return boom
		}
		return nil
	}))
	if !errors.Is(errs[2], boom) {
		t.Fatalf("rank 2 exit: %v", errs[2])
	}
	for _, r := range []int{0, 1} {
		var rf *RankFailedError
		if !errors.As(errs[r], &rf) || rf.Rank != 2 || !strings.Contains(errs[r].Error(), "boom") {
			t.Errorf("rank %d returned %v, want rank 2's failure carrying its error", r, errs[r])
		}
	}
}

// A peer that vanishes silently — transport torn down with no goodbye, as
// a kill -9 would leave it — is noticed at once by every survivor: its
// connections end before its goodbye, and the world aborts blaming it.
func TestNetWorldSilentVanishAborts(t *testing.T) {
	var vanished time.Time
	trs := newNetTransports(t, netMesh(t, 3))
	errs := runNetWorlds(t, trs, nil, lockstep(6, func(c *Comm, g int) error {
		if c.Rank() == 2 && g == 2 {
			// Vanish: sever the mesh and leave without goodbye.
			vanished = time.Now()
			trs[2].close()
			return errors.New("simulated hard crash")
		}
		return nil
	}))
	if took := time.Since(vanished); took > time.Second {
		t.Errorf("the survivors took %v to abort after the vanish", took)
	}
	for _, r := range []int{0, 1} {
		var rf *RankFailedError
		if !errors.As(errs[r], &rf) || rf.Rank != 2 || strings.Contains(errs[r].Error(), "simulated") {
			t.Errorf("rank %d returned %v, want rank 2's failure as the wire saw it", r, errs[r])
		}
	}
}

// A half-open peer — a connection to the listener that never sends its
// hello — is closed once the hello deadline (DialTimeout+WriteTimeout)
// lapses, and meanwhile does not keep the real mesh from wiring.
func TestNetHalfOpenPeerDroppedWhileMeshWires(t *testing.T) {
	cfgs := netMesh(t, 2)
	for i := range cfgs {
		cfgs[i].DialTimeout = 100 * time.Millisecond
		cfgs[i].WriteTimeout = 200 * time.Millisecond
	}
	trs := newNetTransports(t, cfgs)
	worlds := []*World{NewNetWorld(trs[0]), NewNetWorld(trs[1])}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.close()
		}
	})

	// Rank 1 listens and waits for rank 0 to dial in.
	started := make(chan error, 1)
	go func() { started <- trs[1].Start() }()

	// The half-open peer connects as soon as the listener is up.
	var raw net.Conn
	for giveUp := time.Now().Add(5 * time.Second); raw == nil; {
		c, err := net.Dial("unix", cfgs[1].Addrs[1])
		if err == nil {
			raw = c
		} else if time.Now().After(giveUp) {
			t.Fatalf("rank 1 never listened: %v", err)
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	defer raw.Close()
	opened := time.Now()

	// The real mesh wires around it and carries traffic.
	if err := trs[0].Start(); err != nil {
		t.Fatalf("rank 0 start: %v", err)
	}
	if err := <-started; err != nil {
		t.Fatalf("rank 1 start: %v", err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func(r int, w *World) {
			defer wg.Done()
			errs[r] = w.RunLocal(func(c *Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 7, []byte("ping"))
				}
				_, err := c.Recv(0, 7)
				return err
			})
		}(r, w)
	}

	// The listener gives up on the silent connection within its bound.
	bound := cfgs[1].DialTimeout + cfgs[1].WriteTimeout
	_ = raw.SetReadDeadline(opened.Add(bound + 2*time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("half-open connection after %v: read returned %v, want EOF from the listener closing it (bound %v)",
			time.Since(opened), err, bound)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// A clean exit ends on the acknowledgement of the goodbye, not on the
// linger: rank r+1 stays in its body until rank r's RunLocal has returned,
// so every leaver's remaining peers are alive, acknowledging, and nowhere
// near saying goodbye themselves. With the shipped five-second Linger, each
// RunLocal must still return promptly after its body.
func TestNetShutdownEndsOnAck(t *testing.T) {
	const n = 3
	trs := newNetTransports(t, netMesh(t, n))
	left := make([]chan struct{}, n)
	for i := range left {
		left[i] = make(chan struct{})
	}
	errs := make([]error, n)
	took := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer close(left[rank])
			w := NewNetWorld(trs[rank])
			if err := trs[rank].Start(); err != nil {
				errs[rank] = err
				trs[rank].Shutdown(err)
				return
			}
			var bodyEnd time.Time
			errs[rank] = w.RunLocal(func(c *Comm) error {
				err := c.Barrier()
				if rank > 0 {
					<-left[rank-1]
				}
				bodyEnd = time.Now()
				return err
			})
			took[rank] = time.Since(bodyEnd)
		}(i)
	}
	wg.Wait()
	for r := range errs {
		if errs[r] != nil {
			t.Errorf("rank %d: %v", r, errs[r])
		}
		if took[r] > time.Second {
			t.Errorf("rank %d: RunLocal returned %v after its body (Linger %v): the exit waited on something other than the goodbye's ack",
				r, took[r], trs[r].cfg.Linger)
		}
	}
}

// Linger is the bound for a peer that never acknowledges: Shutdown does not
// return while frames are outstanding to a connected peer, and does return
// once Linger has passed. Rank 1 is a stand-in that completes the handshake
// and then never reads.
func TestNetShutdownBoundedByLinger(t *testing.T) {
	const linger = 300 * time.Millisecond
	cfgs := netMesh(t, 2)
	cfgs[0].Linger = linger
	trs := newNetTransports(t, cfgs)
	ln, err := net.Listen("unix", cfgs[1].Addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	defer close(release)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		if err := trs[1].writeHandshake(conn, frameWelcome); err != nil {
			return
		}
		<-release
	}()

	w := NewNetWorld(trs[0])
	if err := trs[0].Start(); err != nil {
		t.Fatalf("rank 0 start: %v", err)
	}
	var bodyEnd time.Time
	if err := w.RunLocal(func(c *Comm) error {
		err := c.Send(1, 7, []byte("unheard"))
		bodyEnd = time.Now()
		return err
	}); err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	if took := time.Since(bodyEnd); took < linger || took > linger+time.Second {
		t.Errorf("Shutdown with an unacknowledged frame took %v, want between Linger (%v) and Linger+1s", took, linger)
	}
}

// Linger bounds only a peer that stays connected and silent: a peer whose
// connection ends before it acknowledges the goodbye can no longer ack, and
// Shutdown returns when the connection fails, not when Linger runs out.
// Rank 1 is a stand-in that completes the handshake, reads up to rank 0's
// goodbye, and hangs up without the ack.
func TestNetShutdownEndsWhenThePeerHangsUp(t *testing.T) {
	cfgs := netMesh(t, 2)
	cfgs[0].Linger = 10 * time.Second
	trs := newNetTransports(t, cfgs)
	ln, err := net.Listen("unix", cfgs[1].Addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		if err := trs[1].writeHandshake(conn, frameWelcome); err != nil {
			return
		}
		for {
			if f, err := readFrame(conn); err != nil || f.Kind == frameGoodbye {
				return
			}
		}
	}()

	w := NewNetWorld(trs[0])
	if err := trs[0].Start(); err != nil {
		t.Fatalf("rank 0 start: %v", err)
	}
	var bodyEnd time.Time
	if err := w.RunLocal(func(*Comm) error {
		bodyEnd = time.Now()
		return nil
	}); err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	if took := time.Since(bodyEnd); took > time.Second {
		t.Errorf("Shutdown took %v after the peer hung up unacked (Linger %v): the drain waited out Linger", took, cfgs[0].Linger)
	}
}

// A rank blocked in Start on a lower rank that never dials wakes when its
// transport closes: Start fails at once instead of spending the startup
// budget.
func TestNetStartWakesOnClose(t *testing.T) {
	cfgs := netMesh(t, 2)
	trs := newNetTransports(t, cfgs)
	NewNetWorld(trs[1])
	started := make(chan error, 1)
	go func() { started <- trs[1].Start() }()
	// Rank 1 dials no one, so once it listens it is waiting for rank 0.
	for {
		conn, err := net.Dial("unix", cfgs[1].Addrs[1])
		if err == nil {
			conn.Close()
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	begin := time.Now()
	trs[1].close()
	select {
	case err := <-started:
		if err == nil || !strings.Contains(err.Error(), "transport closed while wiring mesh") {
			t.Fatalf("Start = %v, want the transport-closed error", err)
		}
		if took := time.Since(begin); took > time.Second {
			t.Errorf("Start returned %v after close, want well under a second", took)
		}
	case <-time.After(DefaultStartupBudget / 2):
		t.Fatal("Start still waiting on a closed transport")
	}
}

// A data frame whose payload does not decode is a protocol violation by a
// peer the handshake admitted as speaking this codec: the frame was acked, so
// it will never be resent, and the receiver must not wait for it. Rank 1 is a
// stand-in that completes the handshake and sends one data frame of an
// unknown payload kind; rank 0's blocked Recv returns the peer's failure as
// the abort cause.
func TestNetUndecodableDataFrameFailsThePeer(t *testing.T) {
	cfgs := netMesh(t, 2)
	trs := newNetTransports(t, cfgs)
	ln, err := net.Listen("unix", cfgs[1].Addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	defer close(release)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		if err := trs[1].writeHandshake(conn, frameWelcome); err != nil {
			return
		}
		_ = trs[1].writeFrame(conn, &frame{Kind: frameData, Src: 1, Dst: 0, Tag: 7, Payload: []byte{0xFF, 1, 2}})
		<-release
	}()

	w := NewNetWorld(trs[0])
	w.SetRecvTimeout(5 * time.Second)
	if err := trs[0].Start(); err != nil {
		t.Fatalf("rank 0 start: %v", err)
	}
	began := time.Now()
	err = w.RunLocal(func(c *Comm) error {
		_, err := c.Recv(1, 7)
		return err
	})
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 || !strings.Contains(err.Error(), "undecodable") {
		t.Fatalf("Recv behind an undecodable frame returned %v, want a *RankFailedError naming rank 1", err)
	}
	if took := time.Since(began); took > 2*time.Second {
		t.Errorf("the failure took %v to surface", took)
	}
	if n := w.TransportStats().DecodeErrs; n != 1 {
		t.Errorf("decode_errs = %d, want 1", n)
	}
}

// A peer built before the payload codec changed says so in its hello: the
// frame header carries the protocol version, the listener refuses the
// connection before anything joins the mesh, and the same hello at the
// current version is welcomed.
func TestNetHandshakeRefusesOtherVersion(t *testing.T) {
	cfgs := netMesh(t, 2)
	trs := newNetTransports(t, cfgs)
	NewNetWorld(trs[1])
	t.Cleanup(trs[1].close)
	started := make(chan error, 1)
	go func() { started <- trs[1].Start() }()

	hello, err := encodeFrame(&frame{Kind: frameHello, Src: 0, Dst: 2, Payload: []byte(cfgs[0].Job)})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		for giveUp := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			c, err := net.Dial("unix", cfgs[1].Addrs[1])
			if err == nil {
				_ = c.SetDeadline(time.Now().Add(5 * time.Second))
				return c
			}
			if time.Now().After(giveUp) {
				t.Fatalf("rank 1 never listened: %v", err)
			}
		}
	}
	old := dial()
	defer old.Close()
	v3 := append([]byte(nil), hello...)
	binary.BigEndian.PutUint16(v3[4:], 3)
	if _, err := old.Write(v3); err != nil {
		t.Fatal(err)
	}
	// The listener hangs up (EOF, or a reset when it closes on unread bytes).
	if n, err := old.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("version-3 hello: read %d bytes, %v; want the listener to refuse the connection", n, err)
	}

	cur := dial()
	defer cur.Close()
	if _, err := cur.Write(hello); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(cur); err != nil || f.Kind != frameWelcome || f.Src != 1 {
		t.Fatalf("current-version hello: got %+v, %v; want rank 1's welcome", f, err)
	}
	if err := <-started; err != nil {
		t.Fatalf("rank 1 start: %v", err)
	}
}

// A long one-way burst — thousands of broadcasts from one root, data all one
// way — fills the socket buffers. The read loops never write during a run,
// so nothing couples the two directions: the burst completes promptly.
func TestNetOneWayBurstCompletes(t *testing.T) {
	const burst = 4000
	trs := newNetTransports(t, netMesh(t, 3))
	done := make(chan []error, 1)
	go func() {
		done <- runNetWorlds(t, trs, nil, func(c *Comm) error {
			for i := 0; i < burst; i++ {
				got, err := c.Bcast(0, float64(i))
				if err != nil {
					return fmt.Errorf("bcast %d: %w", i, err)
				}
				if got.(float64) != float64(i) {
					return fmt.Errorf("bcast %d carried %v", i, got)
				}
			}
			return c.Barrier()
		})
	}()
	select {
	case errs := <-done:
		for r, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}
	case <-time.After(10 * time.Second):
		for _, tr := range trs {
			tr.close()
		}
		t.Fatal("one-way burst did not complete within 10s: the transport wedged")
	}
}

// A rank whose body needs nobody can be through it and gone before a higher
// rank, still wiring the mesh, looks for its connection: the mesh was wired
// all the same, and the late rank must not spend the startup budget waiting
// for a peer that has been and left.
func TestNetMeshWiredByAPeerThatAlreadyLeft(t *testing.T) {
	for i := 0; i < 20; i++ {
		trs := newNetTransports(t, netMesh(t, 2))
		begin := time.Now()
		for rank, err := range runNetWorlds(t, trs, nil, func(*Comm) error { return nil }) {
			if err != nil {
				t.Fatalf("round %d, rank %d: %v", i, rank, err)
			}
		}
		if took := time.Since(begin); took > DefaultStartupBudget/2 {
			t.Fatalf("round %d: an empty run took %v", i, took)
		}
	}
}

// errListener is a listener whose Accept always fails, as it does while the
// process is out of file descriptors.
type errListener struct{ calls atomic.Int64 }

func (l *errListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	return nil, errors.New("accept: too many open files")
}
func (l *errListener) Close() error   { return nil }
func (l *errListener) Addr() net.Addr { return &net.UnixAddr{Name: "errListener", Net: "unix"} }

// A persistent Accept error does not pin a core: the accept loop pauses
// 5, 10, 20, 40, 80 ms … between attempts — five or six in 100 ms — and
// still stops when the transport does.
func TestNetAcceptLoopBacksOff(t *testing.T) {
	ln := &errListener{}
	tr := &NetTransport{ln: ln, stopCh: make(chan struct{})}
	tr.wg.Add(1)
	go tr.acceptLoop()
	time.Sleep(100 * time.Millisecond)
	close(tr.stopCh)
	tr.wg.Wait()
	if n := ln.calls.Load(); n > 10 {
		t.Errorf("%d Accept calls in 100 ms, want at most 10", n)
	}
}
