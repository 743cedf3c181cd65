package sim

import (
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// Generous heartbeat timings for tests: under -race a healthy goroutine can
// be descheduled for tens of milliseconds, and a false eviction would both
// fail the test and mask the scenario under study.
const (
	testHeartbeat = 20 * time.Millisecond
	testMisses    = 5
)

func evictConfig(cfg Config) Config {
	cfg.Evict = true
	cfg.HeartbeatEvery = testHeartbeat
	cfg.HeartbeatMisses = testMisses
	return cfg
}

// The tentpole acceptance scenario: a scripted kill on a worker mid-run
// completes WITHOUT a supervisor restart. The survivors agree on the new
// rank set, shrink, rebuild their payoff tables, and replay the
// interrupted generation — the trace shows one eviction and zero restarts,
// and the Result is bit-identical to a fault-free run at the same seed.
func TestEvictKilledWorkerBitExactNoRestart(t *testing.T) {
	cfg := testConfig(1, 8, 600)
	cfg.Seed = 401
	cfg.FullRecompute = true

	clean, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	faulty := evictConfig(cfg)
	faulty.CheckpointEvery = 100
	faulty.CheckpointSink = NewMemorySink()
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(2, 500)
	faulty.EventLog = trace.NewEventLog()
	res, err := RunParallelResilient(faulty, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (live eviction must preempt checkpoint restart)", res.Restarts)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if res.Ranks != 3 {
		t.Fatalf("ranks after eviction = %d, want 3", res.Ranks)
	}
	if !faulty.FaultPlan.Faults()[0].Fired() {
		t.Fatal("scripted kill never fired")
	}
	assertSameOutcome(t, clean, res)

	if n := faulty.EventLog.Count(trace.EventEviction); n != 1 {
		t.Errorf("eviction events = %d, want 1", n)
	}
	if n := faulty.EventLog.Count(trace.EventRecovery); n != 0 {
		t.Errorf("restart recovery events = %d, want 0", n)
	}
	if n := faulty.EventLog.Count(trace.EventFault); n != 0 {
		t.Errorf("supervisor fault events = %d, want 0 (the run never reached the supervisor)", n)
	}
}

// Eviction also works directly under RunParallel — no supervisor at all —
// and in incremental (dirty-tracking) mode, where the replay inflates
// GamesPlayed but leaves the trajectory untouched for deterministic games.
func TestEvictIncrementalModeDirectRun(t *testing.T) {
	cfg := testConfig(1, 8, 300)
	cfg.Seed = 402

	clean, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	faulty := evictConfig(cfg)
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(3, 200)
	res, err := RunParallel(faulty, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
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
}

// Two workers dying at different points in the run: two agreement epochs,
// two shrinks, still no restart, still bit-exact.
func TestEvictTwoStaggeredWorkerDeaths(t *testing.T) {
	cfg := testConfig(1, 8, 600)
	cfg.Seed = 403
	cfg.FullRecompute = true

	clean, err := RunParallel(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}

	faulty := evictConfig(cfg)
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(2, 200).Kill(4, 400)
	faulty.EventLog = trace.NewEventLog()
	res, err := RunParallel(faulty, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", res.Evictions)
	}
	if res.Ranks != 3 {
		t.Fatalf("ranks = %d, want 3", res.Ranks)
	}
	if n := faulty.EventLog.Count(trace.EventEviction); n != 2 {
		t.Errorf("eviction events = %d, want 2", n)
	}
	assertSameOutcome(t, clean, res)
}

// Nature's death cannot be recovered live (no one else can re-drive the
// schedule): the run must fall back to the PR 1 checkpoint restart —
// evict-first, restart-second. The trace carries the eviction_failed
// hand-off marker and exactly one supervisor recovery.
func TestEvictNatureDeathFallsBackToRestart(t *testing.T) {
	cfg := testConfig(1, 8, 300)
	cfg.Seed = 404
	cfg.FullRecompute = true

	clean, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	faulty := evictConfig(cfg)
	faulty.CheckpointEvery = 50
	faulty.CheckpointSink = NewMemorySink()
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(0, 150)
	faulty.EventLog = trace.NewEventLog()
	res, err := RunParallelResilient(faulty, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (nature death must reach the supervisor)", res.Restarts)
	}
	if n := faulty.EventLog.Count(trace.EventEvictionFailed); n < 1 {
		t.Errorf("eviction_failed events = %d, want >= 1 (live eviction was tried first)", n)
	}
	if n := faulty.EventLog.Count(trace.EventRecovery); n != 1 {
		t.Errorf("recovery events = %d, want 1", n)
	}
	assertSameOutcome(t, clean, res)
}

// A failure that would shrink the world below MinRanks is refused: the
// survivors hand off to the checkpoint-restart supervisor instead.
func TestEvictBelowMinRanksFallsBackToRestart(t *testing.T) {
	cfg := testConfig(1, 8, 300)
	cfg.Seed = 405
	cfg.FullRecompute = true

	clean, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}

	faulty := evictConfig(cfg)
	faulty.MinRanks = 3 // nature + two workers: losing either worker is fatal
	faulty.CheckpointEvery = 50
	faulty.CheckpointSink = NewMemorySink()
	faulty.FaultPlan = mpi.NewFaultPlan().Kill(2, 150)
	faulty.EventLog = trace.NewEventLog()
	res, err := RunParallelResilient(faulty, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if n := faulty.EventLog.Count(trace.EventEvictionFailed); n < 1 {
		t.Errorf("eviction_failed events = %d, want >= 1", n)
	}
	assertSameOutcome(t, clean, res)
}

// A live eviction with the payoff table on. Survivors that ran ahead of
// Nature have applied generations that Nature, rolling back, resumes them
// without: resync rebuilds each rank's population and table from one
// strategy view. The last twelve sends worker 2 makes cover every kind — a
// fill's Gather, a sampled meeting's, the end of the window's and its
// Barrier — and a type id or cell left over from before the resync reads
// another type's payoffs and shows against the fault-free reference run.
func TestEvictResyncKeepsPayoffTableExact(t *testing.T) {
	cfg := testConfig(2, 8, 120)
	cfg.Seed = 403
	cfg.FullRecompute = true
	cfg.Mu = 0.5
	cfg.PCRate = 1
	clean, err := RunParallel(reference(cfg), 4)
	if err != nil {
		t.Fatal(err)
	}
	last := killAt(meetingsOf(t, evictConfig(cfg)), 4, 2, cfg.Generations) + 1 // the end's Barrier
	for kill := last - 11; kill <= last; kill++ {
		faulty := evictConfig(cfg)
		faulty.FaultPlan = mpi.NewFaultPlan().Kill(2, kill)
		res, err := RunParallel(faulty, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Evictions != 1 {
			t.Fatalf("kill at send %d: evictions = %d, want 1", kill, res.Evictions)
		}
		assertBitIdentical(t, clean, res, typedTol(cfg))
	}
}
