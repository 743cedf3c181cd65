package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// durableSpec is a job long enough to interrupt mid-run: full_recompute
// makes every generation cost the same, and error_rate keeps every match out
// of the payoff table, so the copy/drain points below land well inside the
// trajectory.
const durableSpec = `{"memory":1,"ssets":8,"generations":4000,"rounds":100,"error_rate":0.01,"seed":1234,"full_recompute":true}`

// durableOpts is the durable-mode test configuration: one worker keeps
// scheduling deterministic, a short checkpoint cadence gives crashes
// something recent to resume from.
func durableOpts(dir string) Options {
	return Options{Workers: 1, DataDir: dir, CheckpointEvery: 200}
}

// newDurableServer boots a daemon over dir and returns both handles (the
// *Server for Drain, the httptest server for requests). Close order matches
// newTestServer.
func newDurableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(durableOpts(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

// resultMinusElapsed fetches a done job's result with the one wall-clock
// field removed, leaving only trajectory-determined data.
func resultMinusElapsed(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	m := result(t, ts, id)
	delete(m, "elapsed_seconds")
	return m
}

// runDurableBaseline runs durableSpec to completion on a fresh durable
// daemon and returns its deterministic result.
func runDurableBaseline(t *testing.T) map[string]any {
	t.Helper()
	_, ts := newDurableServer(t, t.TempDir())
	id := submit(t, ts, "", durableSpec)
	waitState(t, ts, id, StateDone)
	return resultMinusElapsed(t, ts, id)
}

// copyDir snapshots a data directory mid-run — the moral equivalent of the
// filesystem image a kill -9 leaves behind (journal appends and checkpoint
// renames are each atomic, so any instant is a valid crash image).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("reading %s: %v", src, err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dst, err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if os.IsNotExist(err) {
			// A checkpoint temp file renamed into place between the listing
			// and the read: an image without it is an equally valid crash.
			continue
		}
		if err != nil {
			t.Fatalf("reading %s: %v", sp, err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatalf("writing %s: %v", dp, err)
		}
	}
}

// TestRecoveryFromCrashImageBitIdentical interrupts a durable job by
// snapshotting its data directory mid-run (journal says running, checkpoint
// mid-trajectory) and boots a fresh daemon over the image: recovery must
// re-queue the job, resume it from the checkpoint, and serve a /result
// equal to an uninterrupted run's in every trajectory-determined field.
func TestRecoveryFromCrashImageBitIdentical(t *testing.T) {
	want := runDurableBaseline(t)

	liveDir, crashDir := t.TempDir(), filepath.Join(t.TempDir(), "image")
	_, ts := newDurableServer(t, liveDir)
	id := submit(t, ts, "", durableSpec)
	waitUntil(t, ts, id, "mid-run past a checkpoint", func(m map[string]any) bool {
		gen, _ := m["generation"].(float64)
		return m["state"] == string(StateRunning) && gen >= 1000
	})
	copyDir(t, liveDir, crashDir)
	// The live daemon is irrelevant now; stop its job so cleanup is quick.
	doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/cancel", "", "")

	_, ts2 := newDurableServer(t, crashDir)
	st := status(t, ts2, id)
	if st["state"] != string(StateQueued) && st["state"] != string(StateRunning) && st["state"] != string(StateDone) {
		t.Fatalf("recovered job state = %v, want queued/running/done", st["state"])
	}
	waitState(t, ts2, id, StateDone)
	got := resultMinusElapsed(t, ts2, id)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered result differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}
}

// TestDrainParksAndResumesBitIdentical drains a daemon mid-job (the SIGTERM
// path): the job must come back journaled queued with a durable snapshot, so
// the next boot finds no job journaled running, and a second daemon over the
// same directory must finish it with an uninterrupted-run result.
func TestDrainParksAndResumesBitIdentical(t *testing.T) {
	want := runDurableBaseline(t)

	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", durableSpec)
	waitUntil(t, ts, id, "mid-run", func(m map[string]any) bool {
		gen, _ := m["generation"].(float64)
		return m["state"] == string(StateRunning) && gen >= 500
	})
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	js := replayJournal(data)
	if rj := js.jobs[id]; rj == nil || rj.state != StateQueued || rj.gen < 500 {
		t.Errorf("drained job journaled as %+v, want queued past generation 500", js.jobs[id])
	}
	ts.Close() // release the listener; the manager is already drained

	_, ts2 := newDurableServer(t, dir)
	waitState(t, ts2, id, StateDone)
	got := resultMinusElapsed(t, ts2, id)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drained+resumed result differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}
}

// TestRecoveryCountsInterruptedJobs: the recovery summary counts the jobs
// the journal last shows running. A crash image taken mid-run has one; the
// daemon booted over it journals the job queued again and, drained while
// the job runs once more, parks it, so the boot after that finds none.
func TestRecoveryCountsInterruptedJobs(t *testing.T) {
	liveDir, crashDir := t.TempDir(), filepath.Join(t.TempDir(), "image")
	_, ts := newDurableServer(t, liveDir)
	id := submit(t, ts, "", durableSpec)
	waitUntil(t, ts, id, "mid-run", func(m map[string]any) bool {
		gen, _ := m["generation"].(float64)
		return m["state"] == string(StateRunning) && gen >= 300
	})
	copyDir(t, liveDir, crashDir)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/cancel", "", "")

	// boot starts a daemon over crashDir and returns its recovery summary,
	// which New logs before it returns.
	boot := func() (*Server, *httptest.Server, string) {
		var summary string
		opts := durableOpts(crashDir)
		opts.Log = func(format string, args ...any) {
			if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "recovered") {
				summary = msg
			}
		}
		s, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			s.Close()
			ts.Close()
		})
		return s, ts, summary
	}
	s2, ts2, summary := boot()
	if !strings.Contains(summary, "(1 re-queued, 0 paused, 0 terminal, 0 unrecoverable), 1 interrupted while running") {
		t.Errorf("boot over the crash image logged %q, want the job re-queued and counted interrupted", summary)
	}
	waitUntil(t, ts2, id, "running again", func(m map[string]any) bool {
		return m["state"] == string(StateRunning)
	})
	if err := s2.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts2.Close()
	if _, _, summary := boot(); !strings.Contains(summary, "(1 re-queued, 0 paused, 0 terminal, 0 unrecoverable), 0 interrupted while running") {
		t.Errorf("boot after a clean drain logged %q, want the job re-queued and none interrupted", summary)
	}
}

// TestRecoveryRejectsForeignCheckpoint plants a checkpoint from a different
// run — another seed, or another SSet count — under a drained job's ID: the
// recovering daemon must fail the job with a clear error, not resume from
// the foreign state and serve a silently forked trajectory.
func TestRecoveryRejectsForeignCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ssets int
		seed  uint64
	}{
		{"seed", 8, 999},
		{"ssets", 6, 1234},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newDurableServer(t, dir)
			id := submit(t, ts, "", durableSpec)
			waitUntil(t, ts, id, "mid-run", func(m map[string]any) bool {
				gen, _ := m["generation"].(float64)
				return m["state"] == string(StateRunning) && gen >= 300
			})
			if err := s.Drain(30 * time.Second); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			ts.Close()
			sink := &sim.FileSink{Path: filepath.Join(dir, checkpointsDir, id+".ckpt")}
			foreign := &checkpoint.Snapshot{Generation: 400, Seed: tc.seed, Memory: 1}
			for i := 0; i < tc.ssets; i++ {
				foreign.Strategies = append(foreign.Strategies, strategy.AllD(strategy.NewSpace(1)))
			}
			if err := sink.Save(foreign); err != nil {
				t.Fatalf("planting checkpoint: %v", err)
			}

			_, ts2 := newDurableServer(t, dir)
			st := waitUntil(t, ts2, id, "a terminal state", func(m map[string]any) bool {
				got, _ := m["state"].(string)
				return State(got).terminal()
			})
			msg, _ := st["error"].(string)
			if st["state"] != string(StateFailed) || !strings.Contains(msg, "does not match") {
				t.Fatalf("job resumed from a foreign checkpoint: state %v, error %q", st["state"], msg)
			}
		})
	}
}

// TestRecoveryServesTerminalResults proves done jobs survive restarts
// without re-running: the journal carries the wire result.
func TestRecoveryServesTerminalResults(t *testing.T) {
	dir := t.TempDir()
	spec := `{"memory":1,"ssets":8,"generations":60,"rounds":20,"seed":7}`
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", spec)
	waitState(t, ts, id, StateDone)
	want := resultMinusElapsed(t, ts, id)
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts.Close()

	_, ts2 := newDurableServer(t, dir)
	got := resultMinusElapsed(t, ts2, id)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered terminal result differs\n got: %v\nwant: %v", got, want)
	}
	// The elapsed field must also survive (journaled verbatim, not re-run).
	if _, ok := result(t, ts2, id)["elapsed_seconds"]; !ok {
		t.Errorf("recovered result lost elapsed_seconds")
	}
}

// TestSubmitRecordAloneRecoversQueued pins the journal's per-job footprint
// and the property that makes it enough: a job costs three appends (submit,
// running, done — no state record echoing the submit), and a crash image
// holding only the submit record recovers the job queued and runs it to the
// uninterrupted result.
func TestSubmitRecordAloneRecoversQueued(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":60,"rounds":20,"seed":7}`)
	waitState(t, ts, id, StateDone)
	want := resultMinusElapsed(t, ts, id)
	s.Close()
	ts.Close()

	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	var kinds []string
	image, off := 0, 0 // image: the journal up to and including the submit record
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		off += len(line)
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Job != id {
			continue
		}
		kinds = append(kinds, rec.Kind+":"+string(rec.State))
		if rec.Kind == recSubmit {
			image = off
		}
	}
	if wantKinds := []string{"submit:", "state:running", "state:done"}; !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("job's journal records = %v, want %v", kinds, wantKinds)
	}

	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, journalName), data[:image], 0o644); err != nil {
		t.Fatal(err)
	}
	if rj := replayJournal(data[:image]).jobs[id]; rj == nil || rj.state != StateQueued || rj.eventID != 0 {
		t.Fatalf("submit-only journal replays to %+v, want the job queued at event id 0", rj)
	}
	_, ts2 := newDurableServer(t, crashDir)
	waitState(t, ts2, id, StateDone)
	if got := resultMinusElapsed(t, ts2, id); !reflect.DeepEqual(got, want) {
		t.Errorf("job recovered from its submit record differs from the uninterrupted run\n got: %v\nwant: %v", got, want)
	}
}

// TestEpochIDsStayUniqueAcrossRestarts checks the journal-persisted epoch:
// each boot mints IDs under a fresh epoch, so IDs never collide and sort in
// submission order across restarts.
func TestEpochIDsStayUniqueAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	spec := `{"memory":1,"ssets":8,"generations":40,"rounds":20,"seed":3}`
	s, ts := newDurableServer(t, dir)
	id1 := submit(t, ts, "", spec)
	waitState(t, ts, id1, StateDone)
	if err := s.Drain(time.Minute); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts.Close()

	_, ts2 := newDurableServer(t, dir)
	id2 := submit(t, ts2, "", spec)
	if id1 == id2 {
		t.Fatalf("job IDs collide across restarts: %s", id1)
	}
	if !(id1 < id2) {
		t.Errorf("IDs not submission-ordered across restarts: %s then %s", id1, id2)
	}
	if id1 != "j-0001-000001" || id2 != "j-0002-000001" {
		t.Errorf("unexpected epoch-counter IDs: %s, %s", id1, id2)
	}
	waitState(t, ts2, id2, StateDone)
}

// TestJournalTailDamageTolerated truncates and garbles the journal tail:
// replay must keep every intact record and report (not fail on) the tail,
// and blank lines are no damage at all.
func TestJournalTailDamageTolerated(t *testing.T) {
	dir := t.TempDir()
	spec := `{"memory":1,"ssets":8,"generations":40,"rounds":20,"seed":9}`
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", spec)
	waitState(t, ts, id, StateDone)
	s.Close()
	ts.Close()

	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tail   []byte
		damage bool // the whole tail is skipped; blank lines are no damage
	}{
		{"truncated-record", []byte(`{"kind":"state","job":"` + id + `","sta`), true},
		{"garbage", []byte("\x00\xffnot json at all"), true},
		{"empty-lines", []byte("\n\n\n"), false},
	} {
		damaged := append(append([]byte(nil), data...), tc.tail...)
		js := replayJournal(damaged)
		rj := js.jobs[id]
		if rj == nil || rj.state != StateDone || rj.result == nil {
			t.Errorf("%s: intact records lost: %+v", tc.name, rj)
		}
		want := 0
		if tc.damage {
			want = len(tc.tail)
		}
		if js.skippedTail != want {
			t.Errorf("%s: skipped %d bytes of tail, want %d", tc.name, js.skippedTail, want)
		}
		// A daemon must boot over the damaged journal and keep serving.
		dmgDir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dmgDir, checkpointsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dmgDir, journalName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts2 := newDurableServer(t, dmgDir)
		if got := status(t, ts2, id); got["state"] != string(StateDone) {
			t.Errorf("%s: recovered state = %v, want done", tc.name, got["state"])
		}
	}
}

// TestJournalCompaction drives enough appends to trigger compaction and
// checks the journal shrinks to live state while still replaying correctly.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	st, js, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	defer st.close()
	if js.epoch != 0 || len(js.jobs) != 0 {
		t.Fatalf("fresh store not empty: %+v", js)
	}
	for i := 0; i < compactEvery+10; i++ {
		if err := st.append(journalRecord{Kind: recState, Job: "j-0001-000001", State: StateRunning, Gen: i}, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	before, _ := os.Stat(filepath.Join(dir, journalName))
	spec := JobSpec{Memory: 1, SSets: 8, Generations: 10}
	compacted := []journalRecord{
		{Kind: recMeta, Epoch: 3},
		{Kind: recSubmit, Job: "j-0001-000001", Tenant: "default", Spec: &spec, Est: 1},
		{Kind: recState, Job: "j-0001-000001", State: StateDone, Gen: 10},
	}
	if err := st.maybeCompact(func() []journalRecord { return compacted }); err != nil {
		t.Fatalf("maybeCompact: %v", err)
	}
	after, _ := os.Stat(filepath.Join(dir, journalName))
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink journal: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends keep working on the swapped handle and replay sees both.
	if err := st.append(journalRecord{Kind: recMeta, Epoch: 4}, nil); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, journalName))
	got := replayJournal(data)
	if got.epoch != 4 || got.jobs["j-0001-000001"].state != StateDone {
		t.Errorf("replay after compaction: epoch=%d jobs=%+v", got.epoch, got.jobs)
	}
}

// TestOpenStoreRemovesOrphanedTemps plants what a daemon killed between
// CreateTemp and Rename leaves behind — one compaction temp, one checkpoint
// temp — and checks the next boot removes both and nothing else.
func TestOpenStoreRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	if err := st.append(journalRecord{Kind: recMeta, Epoch: 4}, nil); err != nil {
		t.Fatal(err)
	}
	ckpt := st.checkpointPath("j-0004-000001")
	if err := os.WriteFile(ckpt, []byte("snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.close()

	var orphans []string
	for _, target := range []string{filepath.Join(dir, journalName), ckpt} {
		f, err := os.CreateTemp(filepath.Dir(target), filepath.Base(target)+".tmp*")
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString("torn") //nolint:errcheck // content is irrelevant
		f.Close()
		orphans = append(orphans, f.Name())
	}

	st, js, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore over orphaned temps: %v", err)
	}
	defer st.close()
	for _, o := range orphans {
		if _, err := os.Stat(o); !os.IsNotExist(err) {
			t.Errorf("orphaned temp %s survived the boot (stat err %v)", filepath.Base(o), err)
		}
	}
	if data, err := os.ReadFile(ckpt); err != nil || string(data) != "snapshot" {
		t.Errorf("real checkpoint touched: %q, %v", data, err)
	}
	if js.epoch != 4 {
		t.Errorf("journal not replayed intact: epoch %d, want 4", js.epoch)
	}
}

// FuzzJournalTail feeds arbitrary bytes (seeded with real journals plus
// damaged variants) through replay: it must never panic, and its outputs
// must stay internally consistent.
func FuzzJournalTail(f *testing.F) {
	var lines []string
	spec := `{"memory":1,"ssets":4,"generations":10,"seed":1}`
	lines = append(lines,
		`{"kind":"meta","epoch":2}`,
		`{"kind":"submit","job":"j-0002-000001","tenant":"default","spec":`+spec+`,"estimated_seconds":0.5}`,
		`{"kind":"state","job":"j-0002-000001","state":"running","generation":5,"event_id":3}`,
		`{"kind":"state","job":"j-0002-000001","state":"done","generation":10,"event_id":7,"result":{"id":"j-0002-000001","final_fitness":[1,2],"fingerprints":["a"],"counters":{"GamesPlayed":1,"PCEvents":0,"Adoptions":0,"Mutations":0},"mean_fitness":null,"cooperation":null,"ranks":1,"restarts":0,"elapsed_seconds":0.1}`,
		`{"kind":"clean"}`,
	)
	full := strings.Join(lines, "\n") + "\n"
	f.Add([]byte(full))
	f.Add([]byte(full + `{"kind":"state","job":"j-0002-0000`)) // torn tail
	f.Add([]byte(full + "\x00\x01garbage"))
	f.Add([]byte(""))
	f.Add([]byte("{}\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		js := replayJournal(data)
		if js.skippedTail < 0 || js.skippedTail > len(data) {
			t.Fatalf("skippedTail %d out of range for %d bytes", js.skippedTail, len(data))
		}
		seen := make(map[string]bool)
		for _, id := range js.order {
			if seen[id] {
				t.Fatalf("duplicate id %q in order", id)
			}
			seen[id] = true
			if js.jobs[id] == nil {
				t.Fatalf("ordered id %q missing from table", id)
			}
		}
		if len(js.order) != len(js.jobs) {
			t.Fatalf("order/table size mismatch: %d vs %d", len(js.order), len(js.jobs))
		}
	})
}

// TestSubmitNotAcknowledgedWithoutJournalRecord: a submission whose record
// cannot be appended is refused with a 5xx, not acknowledged — a 202
// promises the job survives a crash — and leaves no job listed and no
// tenant slot or budget held.
func TestSubmitNotAcknowledgedWithoutJournalRecord(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir())
	if err := s.mgr.store.close(); err != nil { // every later append fails
		t.Fatal(err)
	}
	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "", durableSpec)
	if resp.StatusCode < 500 {
		t.Fatalf("submission without a journal record: got %d %v, want a 5xx", resp.StatusCode, m)
	}
	if _, list := doJSON(t, "GET", ts.URL+"/api/v1/jobs", "", ""); len(list["jobs"].([]any)) != 0 {
		t.Errorf("refused job is listed: %v", list)
	}
	if n := s.reg.Counter("egd_server_journal_errors_total").Load(); n != 1 {
		t.Errorf("egd_server_journal_errors_total = %d, want 1", n)
	}
	s.mgr.mu.Lock()
	outstanding := s.mgr.outstanding
	s.mgr.mu.Unlock()
	if outstanding != 0 {
		t.Errorf("refused job still holds %v s of the outstanding budget", outstanding)
	}
	q := s.mgr.quotas
	q.mu.Lock()
	active := q.state("default").active
	q.mu.Unlock()
	if active != 0 {
		t.Errorf("refused job still holds %d tenant slots", active)
	}
}

// A submission refused for a full queue leaves no trace: it is neither
// listed nor journaled, so a restart over the same data directory recovers
// only the admitted jobs — the one running and the one queued behind it.
func TestRefusedSubmissionLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.QueueDepth = 1
	s, ts := startServer(t, opts, nil)
	running := submit(t, ts, "", longSpec)
	waitState(t, ts, running, StateRunning)
	want := []string{running, submit(t, ts, "", longSpec)}
	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "", longSpec)
	assertQueueFull(t, "a third submission", resp, m)

	listed := func(ts *httptest.Server) (ids []string) {
		_, list := doJSON(t, "GET", ts.URL+"/api/v1/jobs", "", "")
		for _, j := range list["jobs"].([]any) {
			ids = append(ids, j.(map[string]any)["id"].(string))
		}
		return ids
	}
	if got := listed(ts); !reflect.DeepEqual(got, want) {
		t.Errorf("listed after the refusal: %v, want the admitted %v", got, want)
	}
	if err := s.Drain(time.Minute); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts.Close()
	_, ts2 := newDurableServer(t, dir)
	if got := listed(ts2); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered after a restart: %v, want the admitted %v", got, want)
	}
}

// TestSubmitRejectedAfterDrain pins the shutdown contract: a draining
// daemon refuses new work instead of accepting jobs it will never run.
func TestSubmitRejectedAfterDrain(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	if err := s.Drain(time.Minute); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "", durableSpec)
	if resp.StatusCode == 202 {
		t.Fatalf("drained daemon accepted a job: %v", m)
	}
}

// TestDurableResultMatchesEphemeral guards against durable mode perturbing
// the trajectory: the same spec must produce identical results with and
// without a store (checkpointing is pure output).
func TestDurableResultMatchesEphemeral(t *testing.T) {
	spec := `{"memory":1,"ssets":8,"generations":400,"rounds":20,"seed":21,"sample_stride":10}`
	tsEphemeral := newTestServer(t, Options{Workers: 1})
	id1 := submit(t, tsEphemeral, "", spec)
	waitState(t, tsEphemeral, id1, StateDone)
	em := resultMinusElapsed(t, tsEphemeral, id1)

	_, tsDurable := newDurableServer(t, t.TempDir())
	id2 := submit(t, tsDurable, "", spec)
	waitState(t, tsDurable, id2, StateDone)
	dm := resultMinusElapsed(t, tsDurable, id2)

	// The durable job's sink is a checkpoint file that did not exist when its
	// first segment asked for a resume point: the segment started at
	// generation 0, so the sampled series does.
	if first := dm["cooperation"].([]any)[0].(map[string]any); first["generation"] != 0.0 {
		t.Errorf("fresh durable job's series starts at %v, want generation 0", first)
	}
	// IDs differ by epoch (ephemeral 0, durable 1); everything else must not.
	delete(em, "id")
	delete(dm, "id")
	if !reflect.DeepEqual(em, dm) {
		t.Errorf("durable mode changed the trajectory\nephemeral: %v\n  durable: %v", em, dm)
	}
}

// TestRecoveredSSEIDsMonotonic checks the hub base: events published after
// a restart continue above the journal-persisted high-water mark.
func TestRecoveredSSEIDsMonotonic(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", durableSpec)
	waitUntil(t, ts, id, "mid-run", func(m map[string]any) bool {
		gen, _ := m["generation"].(float64)
		return m["state"] == string(StateRunning) && gen >= 500
	})
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts.Close()

	srv2, ts2 := newDurableServer(t, dir)
	job, ok := srv2.mgr.get(id)
	if !ok {
		t.Fatalf("job %s not recovered", id)
	}
	base := job.hub.highWater()
	if base <= 0 {
		t.Fatalf("recovered hub base = %d, want the pre-restart high-water (> 0)", base)
	}
	waitState(t, ts2, id, StateDone)
	if hw := job.hub.highWater(); hw <= base {
		t.Errorf("post-restart events did not advance past base: %d -> %d", base, hw)
	}
}
