package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
)

// runNetworked hosts a full networked run inside one test process: each of
// the ranks that egdrun would spawn as a worker process runs here as a
// goroutine with its own NetTransport, its own World, and its own view of
// the unix-socket mesh — every byte between ranks crosses a real socket.
// It returns the Nature rank's Result and the per-rank RunWorker errors.
func runNetworked(t *testing.T, cfg Config, ranks int) (*Result, []error) {
	t.Helper()
	addrs := socketPaths(t, ranks)
	return runMesh(t, cfg, ranks, "unix", func(int) []string { return addrs })
}

func socketPaths(t *testing.T, ranks int) []string {
	dir := t.TempDir()
	addrs := make([]string, ranks)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	return addrs
}

// loopbackAddrs returns a TCP address on 127.0.0.1 per rank, each a port the
// kernel handed to a ":0" listener that is closed again before the mesh
// starts.
func loopbackAddrs(t *testing.T, ranks int) []string {
	t.Helper()
	addrs := make([]string, ranks)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs
}

// runMesh is runNetworked over network with each rank given its own address
// list, so a test can route a rank's dials through a tap.
func runMesh(t *testing.T, cfg Config, ranks int, network string, addrsOf func(rank int) []string) (*Result, []error) {
	t.Helper()
	results := make([]*Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := mpi.NewNetTransport(mpi.NetConfig{
				Self:    rank,
				Size:    ranks,
				Network: network,
				Addrs:   addrsOf(rank),
				Job:     t.Name(),
			})
			if err != nil {
				errs[rank] = err
				return
			}
			results[rank], errs[rank] = RunWorker(cfg, tr)
		}(i)
	}
	wg.Wait()
	return results[0], errs
}

// wireTap relays unix-socket connections to a rank's real listener and
// tallies, per (source, destination, tag), the payload bytes of every data
// frame that crosses — read off the stream with nothing but the frame
// header layout docs/TRANSPORT.md documents, so the tally is what the
// transport wrote, not what it says it wrote. sever cuts every connection
// it relays.
type wireTap struct {
	mu    sync.Mutex
	bytes map[[3]int]uint64 // {src, dst, tag} -> data-frame payload bytes
	msgs  map[[3]int]uint64
	conns []net.Conn
}

// listen starts relaying connections made to path on to target.
func (tap *wireTap) listen(t *testing.T, path, target string) {
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("unix", target)
			if err != nil {
				in.Close()
				continue
			}
			tap.mu.Lock()
			tap.conns = append(tap.conns, in, out)
			tap.mu.Unlock()
			go tap.pump(in, out)
			go tap.pump(out, in)
		}
	}()
}

// pump copies frames from src to dst until either side closes.
func (tap *wireTap) pump(src, dst net.Conn) {
	defer src.Close()
	defer dst.Close()
	for {
		// magic(4) version(2) kind(1) pad(1) src(4) dst(4) tag(8)
		// payloadLen(4), big-endian; then the payload.
		head := make([]byte, 28)
		if _, err := io.ReadFull(src, head); err != nil {
			return
		}
		payloadLen := int(binary.BigEndian.Uint32(head[24:]))
		body := make([]byte, payloadLen)
		if _, err := io.ReadFull(src, body); err != nil {
			return
		}
		if head[6] == 1 { // a data frame
			key := [3]int{int(binary.BigEndian.Uint32(head[8:])), int(binary.BigEndian.Uint32(head[12:])), int(binary.BigEndian.Uint64(head[16:]))}
			tap.mu.Lock()
			tap.bytes[key] += uint64(payloadLen)
			tap.msgs[key]++
			tap.mu.Unlock()
		}
		if _, err := dst.Write(append(head, body...)); err != nil {
			return
		}
	}
}

// sever closes both ends of every connection the tap relays: a network cut.
func (tap *wireTap) sever() {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, c := range tap.conns {
		c.Close()
	}
}

// Modelled ≡ actual: the per-tag message and byte counts the Nature rank's
// communication accounting books are the data-frame payloads a tap on the
// sockets saw travel from and to rank 0 — every engine message, fill and
// gathered report, byte for byte, with the table keyed by SSet (the
// reference kernel) and by type.
func TestCommAccountingMatchesWireBytes(t *testing.T) {
	cfg := testConfig(1, 8, 40)
	cfg.Seed = 105
	cfg.Metrics = true
	cfg.Mu = 0.2 // mutants: new types to fill
	t.Run("keyed by SSet", func(t *testing.T) { tapRun(t, reference(cfg)) })
	t.Run("served by type", func(t *testing.T) { tapRun(t, cfg) })
}

// tapRun runs cfg on three networked ranks behind a wireTap and holds Nature's
// accounting of each tag to the tap's.
func tapRun(t *testing.T, cfg Config) {
	const ranks = 3
	real := socketPaths(t, ranks)
	taps := socketPaths(t, ranks*ranks)
	tap := &wireTap{bytes: map[[3]int]uint64{}, msgs: map[[3]int]uint64{}}
	for from := 0; from < ranks; from++ {
		for to := from + 1; to < ranks; to++ { // lower ranks dial higher ones
			tap.listen(t, taps[from*ranks+to], real[to])
		}
	}
	res, errs := runMesh(t, cfg, ranks, "unix", func(rank int) []string {
		addrs := append([]string(nil), real...)
		for to := rank + 1; to < ranks; to++ {
			addrs[to] = taps[rank*ranks+to]
		}
		return addrs
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	nature := res.Metrics.Comm[0]
	if len(nature.SentByTag) == 0 || len(nature.RecvByTag) == 0 {
		t.Fatalf("Nature's accounting is missing tags: %+v", nature)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	check := func(dir string, booked []mpi.TagTraffic, end int) {
		for _, tt := range booked {
			var msgs, bytes uint64
			for key, n := range tap.bytes {
				if key[end] == 0 && key[2] == tt.Tag {
					bytes += n
					msgs += tap.msgs[key]
				}
			}
			if msgs != tt.Msgs || bytes != tt.Bytes {
				t.Errorf("rank 0 %s tag %s: accounting books %d messages / %d bytes, the wire carried %d / %d",
					dir, mpi.TagLabel(tt.Tag), tt.Msgs, tt.Bytes, msgs, bytes)
			}
		}
	}
	check("sent", nature.SentByTag, 0)
	check("received", nature.RecvByTag, 1)
}

// The backend-parity acceptance criterion: the same seeded Config produces
// a byte-identical Result whether the ranks are goroutines sharing a
// process (RunParallel) or processes sharing nothing but sockets
// (RunWorker), unix or TCP loopback. The transport changes where bytes
// travel, not what is computed.
func TestNetworkedBackendParityBitExact(t *testing.T) {
	cfg := testConfig(1, 12, 60)
	cfg.Seed = 101

	inproc, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for network, addrsOf := range map[string]func(*testing.T, int) []string{"unix": socketPaths, "tcp": loopbackAddrs} {
		t.Run(network, func(t *testing.T) {
			addrs := addrsOf(t, 3)
			wire, errs := runMesh(t, cfg, 3, network, func(int) []string { return addrs })
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			if wire == nil {
				t.Fatal("networked run produced no Result on the Nature rank")
			}
			assertSameTrajectory(t, inproc, wire)
			// Two parallel runs with identical reduction trees must agree
			// exactly, not merely within tolerance.
			for i := 0; i < inproc.MeanFitness.Len(); i++ {
				_, va := inproc.MeanFitness.At(i)
				_, vb := wire.MeanFitness.At(i)
				if va != vb {
					t.Fatalf("mean fitness sample %d: %v (in-process) vs %v (wire)", i, va, vb)
				}
			}
			if inproc.Cooperation.Len() != wire.Cooperation.Len() {
				t.Fatalf("cooperation series lengths differ: %d vs %d", inproc.Cooperation.Len(), wire.Cooperation.Len())
			}
			for i := 0; i < inproc.Cooperation.Len(); i++ {
				ga, va := inproc.Cooperation.At(i)
				gb, vb := wire.Cooperation.At(i)
				if ga != gb || va != vb {
					t.Fatalf("cooperation at sample %d: (%d,%v) vs (%d,%v)", i, ga, va, gb, vb)
				}
			}
			if wire.Ranks != 3 || wire.Restarts != 0 {
				t.Fatalf("networked result ranks=%d restarts=%d", wire.Ranks, wire.Restarts)
			}
		})
	}
}

// With metrics on, the deterministic half of the instrumentation — phase
// and collective call counts — is identical across backends, and the
// networked Result additionally carries a transport snapshot whose frame
// counters prove the run really crossed the wire.
func TestNetworkedBackendParityMetrics(t *testing.T) {
	cfg := testConfig(1, 8, 40)
	cfg.Seed = 105
	cfg.Metrics = true

	inproc, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, errs := runNetworked(t, cfg, 3)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	assertSameTrajectory(t, inproc, net)
	if inproc.Metrics == nil || net.Metrics == nil {
		t.Fatal("metrics missing from a Result")
	}
	// Per-rank phase call counts: deterministic, so equal across backends.
	if len(inproc.Metrics.Phases) != len(net.Metrics.Phases) {
		t.Fatalf("phase snapshot counts differ: %d vs %d", len(inproc.Metrics.Phases), len(net.Metrics.Phases))
	}
	for i := range inproc.Metrics.Phases {
		a, b := inproc.Metrics.Phases[i], net.Metrics.Phases[i]
		if a.Rank != b.Rank || len(a.Phases) != len(b.Phases) {
			t.Fatalf("rank snapshot %d shape differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Phases {
			if a.Phases[j].Phase != b.Phases[j].Phase || a.Phases[j].Calls != b.Phases[j].Calls {
				t.Fatalf("rank %d phase %q calls: %d (in-process) vs %d (wire)",
					a.Rank, a.Phases[j].Phase, a.Phases[j].Calls, b.Phases[j].Calls)
			}
		}
	}
	// Transport accounting is per-process wallclock observability, not part
	// of the trajectory — but it must exist and show real wire traffic.
	if inproc.Metrics.Transport != nil {
		t.Fatal("in-process run grew a transport snapshot")
	}
	ts := net.Metrics.Transport
	if ts == nil {
		t.Fatal("networked run has no transport snapshot")
	}
	if ts.FramesSent == 0 || ts.FramesRecv == 0 || ts.BytesSent == 0 {
		t.Fatalf("transport snapshot shows no traffic: %+v", ts)
	}
	// The snapshot flows into the metrics registry under wallclock naming
	// (stripped from deterministic snapshots).
	snap := net.MetricsRegistry().Snapshot()
	found := false
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "egd_transport_frames_sent_wallclock_total") {
			found = true
		}
	}
	if !found {
		t.Fatal("transport counters missing from metrics registry")
	}
	for _, c := range snap.Deterministic().Counters {
		if strings.HasPrefix(c.Name, "egd_transport_") {
			t.Fatalf("wallclock transport counter %q survived Deterministic()", c.Name)
		}
	}
}

// The restart path over the wire, at the engine level: a worker dying
// mid-run, or a connection cut mid-run, aborts the networked world, and a
// fresh mesh relaunched from Nature's latest snapshot (RestartConfig, what
// egdrun's fleet does) ends in the Result of a run that never saw the
// fault.
func TestNetworkedRestartRecoversBitExact(t *testing.T) {
	cfg := testConfig(1, 8, 300)
	cfg.Seed = 402

	// Metrics do not feed the trajectory, so the parity below holds with
	// them on only in the faulty runs — which then register every metric
	// family there is, which the catalog check at the end needs.
	clean, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	faulty := cfg
	faulty.CheckpointEvery = 50
	faulty.Metrics = true

	// relaunch restarts a failed run from its latest snapshot on a fresh
	// mesh and holds the outcome to the clean run.
	relaunch := func(t *testing.T, failed Config) *Result {
		t.Helper()
		restart, err := RestartConfig(failed)
		if err != nil || restart.StartGeneration < 100 {
			t.Fatalf("restart from generation %d (%v), want one past the second checkpoint", restart.StartGeneration, err)
		}
		res, errs := runNetworked(t, restart, 4)
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("relaunched rank %d: %v", rank, err)
			}
		}
		assertSameResult(t, clean, res, false)
		return res
	}

	t.Run("killed rank", func(t *testing.T) {
		killed := faulty
		killed.CheckpointSink = NewMemorySink()
		// Worker 3 dies entering its second meeting past the second
		// checkpoint. It hears the first one's verdict only after Nature has
		// saved that checkpoint; dying at the first one, it could run ahead
		// and abort Nature before the save.
		meetings := meetingsOf(t, killed)
		first := meetings[before(meetings, 100)]
		killed.FaultPlan = mpi.NewFaultPlan().Kill(3, killAt(meetings, 4, 3, first+1))
		res, errs := runNetworked(t, killed, 4)
		if res != nil || !errors.Is(errs[3], mpi.ErrInjectedFault) || !killed.FaultPlan.Faults()[0].Fired() {
			t.Fatalf("faulty run: result %v, rank 3 exit %v; want the scripted kill", res, errs[3])
		}
		for rank, err := range errs[:3] {
			var rf *mpi.RankFailedError
			if !errors.As(err, &rf) || rf.Rank != 3 {
				t.Fatalf("rank %d exit %v, want the abort naming rank 3", rank, err)
			}
		}
		assertCatalogued(t, relaunch(t, killed))
	})

	t.Run("severed connection", func(t *testing.T) {
		// Rank 0 reaches rank 1 through a tap, which Nature's sink severs
		// once the second checkpoint is saved.
		real := socketPaths(t, 4)
		via := socketPaths(t, 1)[0]
		tap := &wireTap{bytes: map[[3]int]uint64{}, msgs: map[[3]int]uint64{}}
		tap.listen(t, via, real[1])
		severed := faulty
		severed.CheckpointSink = &cutSink{MemorySink: NewMemorySink(), at: 100, cut: tap.sever}
		res, errs := runMesh(t, severed, 4, "unix", func(rank int) []string {
			addrs := append([]string(nil), real...)
			if rank == 0 {
				addrs[1] = via
			}
			return addrs
		})
		if res != nil {
			t.Fatal("the severed run returned a result")
		}
		for rank, err := range errs {
			var rf *mpi.RankFailedError
			if !errors.As(err, &rf) || rf.Rank > 1 {
				t.Fatalf("rank %d exit %v, want the abort naming an end of the cut", rank, err)
			}
		}
		relaunch(t, severed)
	})
}

// cutSink is a memory sink that calls cut once it has saved a snapshot at
// generation at or later: a fault placed at a known point of the run.
type cutSink struct {
	*MemorySink
	at   uint64
	cut  func()
	once sync.Once
}

func (s *cutSink) Save(snap *checkpoint.Snapshot) error {
	if err := s.MemorySink.Save(snap); err != nil {
		return err
	}
	if snap.Generation >= s.at {
		s.once.Do(s.cut)
	}
	return nil
}

// assertCatalogued checks catalog ≡ code: every metric family the run's
// registry holds has a row in docs/OBSERVABILITY.md. res must come from a
// metrics-on, networked, cached run — the one kind that registers every
// conditional family, which is checked first.
func assertCatalogued(t *testing.T, res *Result) {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.MetricsRegistry().Snapshot()
	families := make(map[string]bool)
	for _, c := range snap.Counters {
		families[metricFamily(c.Name)] = true
	}
	for _, g := range snap.Gauges {
		families[metricFamily(g.Name)] = true
	}
	for _, conditional := range []string{
		"egd_transport_frames_sent_wallclock_total",
		"egd_payoff_cache_entries",
	} {
		if !families[conditional] {
			t.Errorf("run registered no %s: not the full-registry run the catalog check needs", conditional)
		}
	}
	for name := range families {
		if !bytes.Contains(doc, []byte("| `"+name+"` |")) {
			t.Errorf("metric family %s has no row in docs/OBSERVABILITY.md", name)
		}
	}
}

// metricFamily strips a series name's {label} block.
func metricFamily(series string) string {
	name, _, _ := strings.Cut(series, "{")
	return name
}

// RunWorker mirrors RunParallel's validation: it rejects bad configs and
// more workers than games before any socket is touched.
func TestRunWorkerValidation(t *testing.T) {
	dir := t.TempDir()
	mk := func(self, size int) *mpi.NetTransport {
		addrs := make([]string, size)
		for i := range addrs {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("v%d.sock", i))
		}
		tr, err := mpi.NewNetTransport(mpi.NetConfig{
			Self: self, Size: size, Network: "unix", Addrs: addrs, Job: t.Name(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cfg := testConfig(1, 4, 10)
	// A world of one process is the reference run (a world of none the
	// transport itself refuses).
	want, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWorker(cfg, mk(0, 1))
	if err != nil {
		t.Fatalf("1 rank: %v", err)
	}
	assertSameResult(t, want, got, true)
	if _, err := RunWorker(cfg, mk(0, 14)); err == nil {
		t.Fatal("13 workers accepted for 12 games")
	}
	bad := cfg
	bad.Generations = -1
	if _, err := RunWorker(bad, mk(0, 3)); err == nil {
		t.Fatal("invalid config accepted")
	}
}
