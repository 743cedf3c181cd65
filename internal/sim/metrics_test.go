package sim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestParallelMetricsParity: collection must not perturb the trajectory —
// a metrics-enabled four-rank run matches the metrics-free one-rank
// reference bit for bit, and the aggregate covers every rank and phase.
func TestParallelMetricsParity(t *testing.T) {
	cfg := testConfig(1, 10, 40)
	cfg.Seed = 301
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := cfg
	mcfg.Metrics = true
	const ranks = 4
	par, err := RunParallel(mcfg, ranks)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)

	m := par.Metrics
	if m == nil {
		t.Fatal("Metrics nil with Config.Metrics set")
	}
	if len(m.Phases) != ranks {
		t.Fatalf("phase snapshots for %d ranks, want %d", len(m.Phases), ranks)
	}
	for i, rs := range m.Phases {
		if rs.Rank != i {
			t.Errorf("phase snapshot %d has rank %d", i, rs.Rank)
		}
	}
	// Served by type, every rank, Nature included, played its share of each
	// fill and met at each (the snapshot travels in the end of the window's
	// meeting, so that one is not among them) and folded fitness itself
	// each generation.
	meets := uint64(len(meetingsOf(t, cfg)))
	for _, rs := range m.Phases {
		byPhase := map[string]PhaseStat{}
		for _, p := range rs.Phases {
			byPhase[p.Phase] = p
		}
		if got := byPhase[PhaseGamePlay].Calls; got != meets {
			t.Errorf("rank %d: %d game_play calls, want %d", rs.Rank, got, meets)
		}
		if got := byPhase[PhaseBroadcast].Calls; got != meets {
			t.Errorf("rank %d: %d broadcast calls, want %d", rs.Rank, got, meets)
		}
		if got := byPhase[PhaseNatureStep].Calls; got != uint64(cfg.Generations) {
			t.Errorf("rank %d: %d nature_step calls, want %d", rs.Rank, got, cfg.Generations)
		}
	}
	if len(m.Comm) != ranks {
		t.Fatalf("comm snapshots for %d ranks, want %d", len(m.Comm), ranks)
	}
	if m.Comm[0].SentMsgs == 0 || m.Comm[1].RecvMsgs == 0 {
		t.Error("comm accounting empty")
	}
	compute, comm, _ := m.ComputeCommSplit()
	if compute <= 0 || comm <= 0 {
		t.Errorf("compute/comm split = %v/%v, want both positive", compute, comm)
	}
}

// TestSequentialMetrics: a world of one records its phases and its
// collectives too. It plays every cell of a fill itself, so it books
// game_play and a broadcast at each meeting a walk of its run finds, and
// nature_step every generation.
func TestSequentialMetrics(t *testing.T) {
	cfg := testConfig(1, 8, 25)
	cfg.Seed = 302
	cfg.Metrics = true
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Phases) != 1 || len(res.Metrics.Comm) != 1 {
		t.Fatalf("one-rank metrics = %+v, want one rank", res.Metrics)
	}
	meets := meetingsOf(t, cfg)
	if len(meets) < 2 || len(meets) == cfg.Generations {
		t.Fatalf("degenerate plan: meetings at %v", meets)
	}
	byPhase := map[string]PhaseStat{}
	for _, p := range res.Metrics.Phases[0].Phases {
		byPhase[p.Phase] = p
	}
	for phase, want := range map[string]int{PhaseGamePlay: len(meets), PhaseBroadcast: len(meets), PhaseNatureStep: cfg.Generations} {
		if got := byPhase[phase].Calls; got != uint64(want) {
			t.Errorf("%s calls = %d, want %d", phase, got, want)
		}
	}
	assertMeetings(t, "1 rank", res, len(meets))
}

// TestMetricsRegistryDeterminism: two same-seed runs export byte-identical
// deterministic snapshots — the acceptance contract for -metrics output.
func TestMetricsRegistryDeterminism(t *testing.T) {
	run := func() []byte {
		cfg := testConfig(1, 9, 30)
		cfg.Seed = 303
		cfg.Metrics = true
		res, err := RunParallel(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := metrics.WriteJSON(&buf, res.MetricsRegistry().Snapshot().Deterministic()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if len(a) == 0 || !bytes.Contains(a, []byte("egd_games_played_total")) {
		t.Fatalf("snapshot missing expected series: %s", a)
	}
}

// TestMetricsRegistryExportsCommSeries: the registry carries per-rank,
// per-tag comm counters under the documented names.
func TestMetricsRegistryExportsCommSeries(t *testing.T) {
	cfg := testConfig(1, 8, 20)
	cfg.Seed = 304
	cfg.Metrics = true
	res, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.MetricsRegistry().Snapshot()
	names := map[string]bool{}
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, want := range []string{
		`egd_comm_sent_messages_total{rank="0",tag="coll_bcast"}`,
		`egd_comm_recv_bytes_total{rank="1",tag="coll_bcast"}`,
		`egd_comm_collective_calls_total{op="bcast",rank="1"}`,
		`egd_phase_calls_total{phase="game_play",rank="1"}`,
		`egd_phase_nanos{phase="broadcast",rank="0"}`,
	} {
		if !names[want] {
			t.Errorf("snapshot missing %s", want)
		}
	}
}

// TestMetricsOffByDefault: no aggregate, no registry, nothing gathered.
func TestMetricsOffByDefault(t *testing.T) {
	cfg := testConfig(1, 6, 10)
	cfg.Seed = 305
	res, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil {
		t.Fatalf("Metrics = %+v without Config.Metrics", res.Metrics)
	}
	if res.MetricsRegistry() != nil {
		t.Fatal("MetricsRegistry non-nil without Config.Metrics")
	}
}

// TestMetricsEventLogged: the engine appends one EventMetrics trace event,
// whose totals are the per-rank comm snapshot's.
func TestMetricsEventLogged(t *testing.T) {
	cfg := testConfig(1, 6, 10)
	cfg.Seed = 306
	cfg.Metrics = true
	cfg.EventLog = trace.NewEventLog()
	res, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.EventLog.Count(trace.EventMetrics); n != 1 {
		t.Fatalf("logged %d metrics events, want 1", n)
	}
	wantMsgs, wantBytes, wantColls := mpi.CommTotals(res.Metrics.Comm)
	for _, ev := range cfg.EventLog.Events() {
		if ev.Kind != trace.EventMetrics {
			continue
		}
		var games, msgs, nbytes, colls uint64
		if _, err := fmt.Sscanf(ev.Detail, "games=%d p2p_msgs=%d p2p_bytes=%d collectives=%d", &games, &msgs, &nbytes, &colls); err != nil {
			t.Fatalf("metrics event detail %q: %v", ev.Detail, err)
		}
		// 3 ranks enter a Gather and a Bcast at each meeting and at the end
		// of the window.
		planned := 3 * (collectivesBefore(meetingsOf(t, cfg), cfg.Generations) + 2)
		if games != res.Counters.GamesPlayed || msgs != wantMsgs || msgs == 0 || nbytes != wantBytes || colls != wantColls || colls != planned {
			t.Errorf("metrics event %q, want games=%d p2p_msgs=%d p2p_bytes=%d collectives=%d (planned: %d)",
				ev.Detail, res.Counters.GamesPlayed, wantMsgs, wantBytes, wantColls, planned)
		}
	}
}

// TestMetricsWithRestart: collection composes with a supervised restart —
// the Result carries the relaunched world's metrics, a phase and a comm
// snapshot for every rank, and the registry counts the restart.
func TestMetricsWithRestart(t *testing.T) {
	cfg := deadline(testConfig(1, 8, 200)) // every sampled generation meets
	cfg.Seed = 307
	cfg.Metrics = true
	cfg.FullRecompute = true
	cfg.CheckpointEvery = 50
	cfg.FaultPlan = mpi.NewFaultPlan().Kill(2, 60)
	res, err := RunParallelResilient(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || !cfg.FaultPlan.Faults()[0].Fired() {
		t.Fatalf("restarts = %d, kill fired = %v; want one recovery", res.Restarts, cfg.FaultPlan.Faults()[0].Fired())
	}
	if len(res.Metrics.Comm) != 4 || len(res.Metrics.Phases) != 4 {
		t.Fatalf("%d comm and %d phase snapshots, want 4 of each", len(res.Metrics.Comm), len(res.Metrics.Phases))
	}
	for r, rc := range res.Metrics.Comm {
		if rc.Rank != r || res.Metrics.Phases[r].Rank != r || rc.SentMsgs == 0 {
			t.Errorf("rank %d: comm snapshot %+v, phase snapshot of rank %d", r, rc, res.Metrics.Phases[r].Rank)
		}
	}
	restarts := false
	for _, c := range res.MetricsRegistry().Snapshot().Counters {
		restarts = restarts || c.Name == "egd_restarts_total" && c.Value == 1
	}
	if !restarts {
		t.Error("the registry does not count the restart")
	}
}
