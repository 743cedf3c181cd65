package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// runNetworked hosts a full networked run inside one test process: each of
// the ranks that egdrun would spawn as a worker process runs here as a
// goroutine with its own NetTransport, its own World, and its own view of
// the unix-socket mesh — every byte between ranks crosses a real socket.
// It returns the Nature rank's Result and the per-rank RunWorker errors.
func runNetworked(t *testing.T, cfg Config, ranks int) (*Result, []error) {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, ranks)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
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
				Network: "unix",
				Addrs:   addrs,
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

// The backend-parity acceptance criterion: the same seeded Config produces
// a byte-identical Result whether the ranks are goroutines sharing a
// process (RunParallel) or processes sharing nothing but sockets
// (RunWorker). The transport changes where bytes travel, not what is
// computed.
func TestNetworkedBackendParityBitExact(t *testing.T) {
	cfg := testConfig(1, 12, 60)
	cfg.Seed = 101

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
	if net == nil {
		t.Fatal("networked run produced no Result on the Nature rank")
	}
	assertSameTrajectory(t, inproc, net)
	// Two parallel runs with identical reduction trees must agree exactly,
	// not merely within tolerance.
	for i := 0; i < inproc.MeanFitness.Len(); i++ {
		_, va := inproc.MeanFitness.At(i)
		_, vb := net.MeanFitness.At(i)
		if va != vb {
			t.Fatalf("mean fitness sample %d: %v (in-process) vs %v (wire)", i, va, vb)
		}
	}
	if inproc.Cooperation.Len() != net.Cooperation.Len() {
		t.Fatalf("cooperation series lengths differ: %d vs %d", inproc.Cooperation.Len(), net.Cooperation.Len())
	}
	for i := 0; i < inproc.Cooperation.Len(); i++ {
		ga, va := inproc.Cooperation.At(i)
		gb, vb := net.Cooperation.At(i)
		if ga != gb || va != vb {
			t.Fatalf("cooperation at sample %d: (%d,%v) vs (%d,%v)", i, ga, va, gb, vb)
		}
	}
	if net.Ranks != 3 || net.Evictions != 0 || net.Restarts != 0 {
		t.Fatalf("networked result ranks=%d evictions=%d restarts=%d", net.Ranks, net.Evictions, net.Restarts)
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

// The chaos acceptance criterion at the engine level: a worker whose rank
// dies mid-run over the wire — injected fault, goodbye frame, agreement,
// shrink — yields the same strategies, fitness, and event counters as a
// run that never saw the fault. Incremental mode replays the interrupted
// generation, so GamesPlayed may only grow.
func TestNetworkedEvictionRecoversBitExact(t *testing.T) {
	cfg := testConfig(1, 8, 300)
	cfg.Seed = 402

	clean, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	faulty := evictConfig(cfg)
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(3, 200)
	// Metrics and the payoff cache never feed the trajectory, so the parity
	// below holds with both on — and the run then registers every metric
	// family there is, which the catalog check at the end needs.
	faulty.Metrics = true
	faulty.PayoffCache = true
	res, errs := runNetworked(t, faulty, 4)
	if errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("survivors errored: %v / %v / %v", errs[0], errs[1], errs[2])
	}
	if !errors.Is(errs[3], mpi.ErrInjectedFault) {
		t.Fatalf("killed rank exit: %v", errs[3])
	}
	if !faulty.FaultPlan.Faults()[0].Fired() {
		t.Fatal("scripted kill never fired")
	}
	if res == nil {
		t.Fatal("no Result from the Nature rank")
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if res.Ranks != 3 {
		t.Fatalf("ranks after eviction = %d, want 3", res.Ranks)
	}
	for i := range clean.Final {
		if !clean.Final[i].Equal(res.Final[i]) {
			t.Fatalf("final strategy %d differs", i)
		}
	}
	for i := range clean.FinalFitness {
		if clean.FinalFitness[i] != res.FinalFitness[i] {
			t.Fatalf("final fitness %d differs", i)
		}
	}
	if clean.Counters.PCEvents != res.Counters.PCEvents ||
		clean.Counters.Adoptions != res.Counters.Adoptions ||
		clean.Counters.Mutations != res.Counters.Mutations {
		t.Fatalf("event counters differ: %+v vs %+v", clean.Counters, res.Counters)
	}
	if res.Counters.GamesPlayed < clean.Counters.GamesPlayed {
		t.Fatalf("evicted run played fewer games (%d) than clean (%d)",
			res.Counters.GamesPlayed, clean.Counters.GamesPlayed)
	}
	assertCatalogued(t, res)
}

// assertCatalogued checks catalog ≡ code: every metric family the run's
// registry holds has a row in docs/OBSERVABILITY.md. res must come from a
// metrics-on, networked, cached, evicting run — the one kind that registers
// every conditional family, which is checked first.
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
		"egd_comm_heartbeats_wallclock_total",
		"egd_payoff_cache_entries",
		"egd_evicted",
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
// degenerate rank counts before any socket is touched.
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
	if _, err := RunWorker(cfg, mk(0, 1)); err == nil {
		t.Fatal("1 rank accepted (needs Nature + worker)")
	}
	if _, err := RunWorker(cfg, mk(0, 14)); err == nil {
		t.Fatal("13 workers accepted for 12 games")
	}
	bad := cfg
	bad.Generations = -1
	if _, err := RunWorker(bad, mk(0, 3)); err == nil {
		t.Fatal("invalid config accepted")
	}
}
