package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// snapAt is a small valid snapshot at generation gen.
func snapAt(gen uint64) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{Generation: gen, Seed: 1, Memory: 1}
	for i := 0; i < 4; i++ {
		s.Strategies = append(s.Strategies, strategy.AllD(strategy.NewSpace(1)))
	}
	return s
}

// gatedSink is a FileSink whose writes wait for the test: each Save reports
// its generation on entered, waits for release, writes, and reports again on
// written. The reports are buffered beyond the writes any test makes, so a
// writer never waits for the test to read them.
type gatedSink struct {
	file             *sim.FileSink
	entered, written chan uint64
	release          chan struct{}
}

func newGatedSink(path string) *gatedSink {
	return &gatedSink{
		file:    &sim.FileSink{Path: path},
		entered: make(chan uint64, 16),
		written: make(chan uint64, 16),
		release: make(chan struct{}),
	}
}

func (g *gatedSink) Save(s *checkpoint.Snapshot) error {
	g.entered <- s.Generation
	<-g.release
	err := g.file.Save(s)
	g.written <- s.Generation
	return err
}

func (g *gatedSink) Latest() (*checkpoint.Snapshot, error) { return g.file.Latest() }

// within fails the test unless f returns within a few seconds.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// Save hands a snapshot over and returns while the writer is stuck inside
// a write; snapshots queued behind that write are superseded by the newest,
// which is the one written next.
func TestBehindSinkSaveReturnsWhileWriteBlocked(t *testing.T) {
	reg := metrics.NewRegistry()
	g := newGatedSink(filepath.Join(t.TempDir(), "j.ckpt"))
	b := newBehindSink(g, reg)
	within(t, "Save", func() {
		if err := b.Save(snapAt(1)); err != nil {
			t.Errorf("Save: %v", err)
		}
	})
	if gen := <-g.entered; gen != 1 {
		t.Fatalf("first write is generation %d, want 1", gen)
	}
	within(t, "Save behind a blocked write", func() {
		for gen := uint64(2); gen <= 4; gen++ {
			if err := b.Save(snapAt(gen)); err != nil {
				t.Errorf("Save %d: %v", gen, err)
			}
		}
	})
	close(g.release)
	snap, err := b.Latest()
	if err != nil || snap == nil || snap.Generation != 4 {
		t.Fatalf("Latest = %+v, %v; want generation 4", snap, err)
	}
	close(g.written)
	var written []uint64
	for gen := range g.written {
		written = append(written, gen)
	}
	if !reflect.DeepEqual(written, []uint64{1, 4}) {
		t.Errorf("written generations %v, want [1 4]", written)
	}
	if w, s := b.writes.Load(), b.superseded.Load(); w != 2 || s != 2 {
		t.Errorf("writes %d, superseded %d; want 2 and 2", w, s)
	}
}

// Latest waits for the writer and returns the newest snapshot, which is
// then on disk: a fresh FileSink over the path reads it too. Every snapshot
// handed over is either written or superseded.
func TestBehindSinkLatestIsNewestAndOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ckpt")
	b := newBehindSink(&sim.FileSink{Path: path}, metrics.NewRegistry())
	const saves = 20
	for gen := uint64(1); gen <= saves; gen++ {
		if err := b.Save(snapAt(gen)); err != nil {
			t.Fatalf("Save %d: %v", gen, err)
		}
	}
	snap, err := b.Latest()
	if err != nil || snap == nil || snap.Generation != saves {
		t.Fatalf("Latest = %+v, %v; want generation %d", snap, err, saves)
	}
	disk, err := (&sim.FileSink{Path: path}).Latest()
	if err != nil || disk == nil || disk.Generation != saves {
		t.Fatalf("file holds %+v, %v; want generation %d", disk, err, saves)
	}
	if got := b.writes.Load() + b.superseded.Load(); got != saves {
		t.Errorf("writes + superseded = %d, want %d", got, saves)
	}
}

// newSinkServer is newDurableServer with every job's on-disk sink built by
// disk; each sink built is also sent on the returned channel. The hook is
// set before the listener starts, so no request can race it.
func newSinkServer(t *testing.T, dir string, disk func(path string) sim.CheckpointSink) (*Server, *httptest.Server, chan sim.CheckpointSink) {
	t.Helper()
	s, err := New(durableOpts(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	built := make(chan sim.CheckpointSink, 16) // more jobs than any test submits
	s.mgr.diskSink = func(path string) sim.CheckpointSink {
		sink := disk(path)
		built <- sink
		return sink
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts, built
}

// A job settled while a checkpoint write is in flight leaves no .ckpt file:
// settle drops the pending stop snapshot and waits the write out before it
// deletes the checkpoint.
func TestSettleWithWriteInFlightLeavesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts, built := newSinkServer(t, dir, func(path string) sim.CheckpointSink { return newGatedSink(path) })
	id := submit(t, ts, "", durableSpec)
	g := (<-built).(*gatedSink)
	<-g.entered // the first periodic write is in flight, held by the gate
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/cancel", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, id, StateCanceled)
	time.Sleep(50 * time.Millisecond) // settle reaches the checkpoint's removal
	close(g.release)
	<-g.written
	s.Close() // returns once the worker has finished settling the job
	entries, err := os.ReadDir(filepath.Join(dir, checkpointsDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("settled job left %s behind", e.Name())
	}
}

// failingSink is a disk that refuses every write.
type failingSink struct{}

var errDiskFull = errors.New("disk full")

func (failingSink) Save(*checkpoint.Snapshot) error       { return errDiskFull }
func (failingSink) Latest() (*checkpoint.Snapshot, error) { return nil, nil }

// lostSink takes every snapshot and can read none back.
type lostSink struct{}

var errLost = errors.New("checkpoint lost")

func (lostSink) Save(*checkpoint.Snapshot) error       { return nil }
func (lostSink) Latest() (*checkpoint.Snapshot, error) { return nil, errLost }

// A pause whose stop snapshot cannot be read back fails the job — a
// paused job must be resumable from its snapshot — and releases its tenant
// slot and budget.
func TestPauseWithoutStopSnapshotFailsJob(t *testing.T) {
	s, ts, _ := newSinkServer(t, t.TempDir(), func(string) sim.CheckpointSink { return lostSink{} })
	id := submit(t, ts, "", durableSpec)
	waitState(t, ts, id, StateRunning)
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/pause", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: got %d, body %v", resp.StatusCode, m)
	}
	st := waitState(t, ts, id, StateFailed)
	if msg, _ := st["error"].(string); !strings.HasPrefix(msg, "stop snapshot unavailable") || !strings.Contains(msg, errLost.Error()) {
		t.Fatalf("job error %q, want the unavailable stop snapshot", msg)
	}
	s.mgr.quotas.mu.Lock()
	active := s.mgr.quotas.tenants["default"].active
	s.mgr.quotas.mu.Unlock()
	s.mgr.mu.Lock()
	outstanding := s.mgr.outstanding
	s.mgr.mu.Unlock()
	if active != 0 || outstanding != 0 {
		t.Errorf("after the failure the tenant holds %d slots and the budget %v s, want none", active, outstanding)
	}
}

// A write that fails behind the engine fails the job at its next
// checkpoint: Save reports the stored error and the engine stops there.
func TestCheckpointWriteFailureFailsJob(t *testing.T) {
	_, ts, _ := newSinkServer(t, t.TempDir(), func(string) sim.CheckpointSink { return failingSink{} })
	id := submit(t, ts, "", durableSpec)
	st := waitState(t, ts, id, StateFailed)
	msg, _ := st["error"].(string)
	_, at, found := strings.Cut(msg, "checkpoint at generation ")
	var gen int
	if _, err := fmt.Sscanf(at, "%d", &gen); !found || err != nil || !strings.Contains(msg, errDiskFull.Error()) {
		t.Fatalf("job error %q, want a checkpoint failure carrying %q", msg, errDiskFull)
	}
	// CheckpointEvery is 200: the first write fails behind the engine, and
	// a later checkpoint reports it.
	if every := durableOpts("").CheckpointEvery; gen < 2*every || gen%every != 0 {
		t.Errorf("failure reported at generation %d, want a checkpoint after the first (every %d)", gen, every)
	}
}

// Pause, kill -9, reboot: the stop snapshot is on disk by the time the job
// reads paused (Latest writes it before the state is journaled), so a crash
// image taken then resumes from exactly the pause boundary, and the resumed
// job finishes bit-identically.
func TestPauseKillRebootResumesFromStopSnapshot(t *testing.T) {
	want := runDurableBaseline(t)

	liveDir, crashDir := t.TempDir(), filepath.Join(t.TempDir(), "image")
	_, ts := newDurableServer(t, liveDir)
	id := submit(t, ts, "", durableSpec)
	waitUntil(t, ts, id, "mid-run", func(m map[string]any) bool {
		gen, _ := m["generation"].(float64)
		return m["state"] == string(StateRunning) && gen >= 700
	})
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/pause", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: got %d, body %v", resp.StatusCode, m)
	}
	pausedAt := uint64(waitState(t, ts, id, StatePaused)["generation"].(float64))
	copyDir(t, liveDir, crashDir)

	snap, err := (&sim.FileSink{Path: filepath.Join(crashDir, checkpointsDir, id+".ckpt")}).Latest()
	if err != nil || snap == nil || snap.Generation != pausedAt {
		t.Fatalf("crash image checkpoint %+v, %v; want the stop snapshot at generation %d", snap, err, pausedAt)
	}
	_, ts2 := newDurableServer(t, crashDir)
	if st := status(t, ts2, id); st["state"] != string(StatePaused) {
		t.Fatalf("recovered job is %v, want paused", st["state"])
	}
	if resp, m := doJSON(t, "POST", ts2.URL+"/api/v1/jobs/"+id+"/resume", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts2, id, StateDone)
	if got := resultMinusElapsed(t, ts2, id); !reflect.DeepEqual(got, want) {
		t.Errorf("paused+killed+resumed result differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}
}

// A paused job whose checkpoint cannot be read across a reboot stays paused,
// as a queued or running one stays queued: resumed, its next segment starts
// from generation 0 and serves the uninterrupted run's /result.
func TestPausedJobWithUnreadableCheckpointStaysPaused(t *testing.T) {
	want := runDurableBaseline(t)

	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", durableSpec)
	waitUntil(t, ts, id, "mid-run", func(m map[string]any) bool {
		gen, _ := m["generation"].(float64)
		return m["state"] == string(StateRunning) && gen >= 300
	})
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/pause", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, id, StatePaused)
	s.Close()
	ts.Close()
	if err := os.WriteFile(filepath.Join(dir, checkpointsDir, id+".ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newDurableServer(t, dir)
	if st := status(t, ts2, id); st["state"] != string(StatePaused) {
		t.Fatalf("recovered job is %v (%v), want paused", st["state"], st["error"])
	}
	if resp, m := doJSON(t, "POST", ts2.URL+"/api/v1/jobs/"+id+"/resume", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts2, id, StateDone)
	if got := resultMinusElapsed(t, ts2, id); !reflect.DeepEqual(got, want) {
		t.Errorf("result after a lost checkpoint differs from uninterrupted run\n got: %v\nwant: %v", got, want)
	}
}

// A series encodes in /result as [{"generation":…,"value":…}], and as null
// when nothing was sampled.
func TestResultSeriesWireForm(t *testing.T) {
	fit, _ := stats.NewSeries(5)
	for g := range 7 {
		fit.Observe(g, 1.5+float64(g))
	}
	coop, _ := stats.NewSeries(5)
	body, err := json.Marshal(wireResult("j", &sim.Result{MeanFitness: fit, Cooperation: coop}))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"mean_fitness":[{"generation":0,"value":1.5},{"generation":5,"value":6.5}]`, `"cooperation":null`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/result document %s lacks %s", body, want)
		}
	}
}

// The terminal state is journaled before anyone can see it: while the
// store is held, a job that has finished running keeps its done event off
// the timeline, reads running, and has no /result. Once the append
// returns, the journaled event-id mark is the timeline's.
func TestTerminalStateJournaledBeforePublished(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", durableSpec)
	waitState(t, ts, id, StateRunning)
	job, _ := s.mgr.get(id)

	// held runs with the store locked; the deferred unlock also covers a
	// failing helper, so cleanup's Close never waits on the lock.
	held := func() (events []sseEvent, state State, resp *http.Response) {
		st := s.mgr.store
		st.mu.Lock()
		defer st.mu.Unlock()
		finished := s.reg.Counter(metrics.Name("egd_server_jobs_finished_total", "state", string(StateDone)))
		for i := 0; finished.Load() == 0; i++ {
			if i == 15000 {
				t.Fatalf("job %s never finished running", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // room for a premature publish to show
		events, _, _ = job.hub.after(0)
		resp, _ = doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", "", "")
		return events, job.status().State, resp
	}
	events, state, resp := held()

	for _, ev := range events {
		if ev.Kind == "state" && strings.Contains(string(ev.Data), string(StateDone)) {
			t.Errorf("done event %d published before the journal append returned", ev.ID)
		}
	}
	if state != StateRunning {
		t.Errorf("job reads %s before its terminal state is journaled, want running", state)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("/result before the terminal append: got %d, want 409", resp.StatusCode)
	}

	waitState(t, ts, id, StateDone)
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	rj := replayJournal(data).jobs[id]
	if rj == nil || rj.state != StateDone || rj.eventID != job.hub.highWater() {
		t.Errorf("journaled %+v, want done with event id %d", rj, job.hub.highWater())
	}
}

// resumeWithStoreHeld pauses a durable job mid-run, then calls Resume on
// it with the store locked, so the queued record cannot be appended, and
// runs during once Resume is blocked in the append. It returns Resume's
// error once the lock is released.
func resumeWithStoreHeld(t *testing.T, s *Server, ts *httptest.Server, id string, during func(job *Job)) error {
	t.Helper()
	waitState(t, ts, id, StateRunning)
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/pause", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, id, StatePaused)
	job, _ := s.mgr.get(id)
	resumed := make(chan error, 1)
	func() {
		st := s.mgr.store
		st.mu.Lock()
		defer st.mu.Unlock()
		go func() { resumed <- s.mgr.Resume(job) }()
		for i := 0; ; i++ {
			job.mu.Lock()
			blocked := job.resuming
			job.mu.Unlock()
			if blocked {
				break
			}
			if i == 15000 {
				t.Fatalf("Resume of job %s never reached the journal append", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // room for a premature queued to show
		during(job)
	}()
	return <-resumed
}

// A resumed job reads paused until its queued state is journaled: while
// Resume waits on the append, status and the job list show paused and a
// second Resume is refused. Once the append lands the job runs to done.
func TestResumeJournaledBeforeQueued(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir())
	id := submit(t, ts, "", durableSpec)
	err := resumeWithStoreHeld(t, s, ts, id, func(job *Job) {
		if got := status(t, ts, id)["state"]; got != string(StatePaused) {
			t.Errorf("job reads %v before its queued state is journaled, want paused", got)
		}
		_, list := doJSON(t, "GET", ts.URL+"/api/v1/jobs", "", "")
		for _, j := range list["jobs"].([]any) {
			if j := j.(map[string]any); j["id"] == id && j["state"] != string(StatePaused) {
				t.Errorf("job list shows %v before the queued state is journaled, want paused", j["state"])
			}
		}
		if err := s.mgr.Resume(job); err == nil {
			t.Error("a second Resume was accepted while the first was journaling")
		}
	})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitState(t, ts, id, StateDone)
}

// A Cancel that lands while Resume journals the queued state cancels the
// job as a queued one: the worker settles it, and the journaled queued
// record never overwrites a canceled state.
func TestCancelWhileResumingEndsCanceled(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir())
	id := submit(t, ts, "", durableSpec)
	err := resumeWithStoreHeld(t, s, ts, id, func(job *Job) {
		if err := s.mgr.Cancel(job); err != nil {
			t.Errorf("Cancel while resuming: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitState(t, ts, id, StateCanceled)
}

// getRaw fetches a URL's body and Content-Type.
func getRaw(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d, %v", url, resp.StatusCode, err)
	}
	return body, resp.Header.Get("Content-Type")
}

// assertWriteJSONBytes checks body is what writeJSON writes for the
// document it decodes to.
func assertWriteJSONBytes(t *testing.T, body []byte, ctype string) {
	t.Helper()
	var doc jobResult
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding /result: %v", err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &doc)
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Errorf("/result is not writeJSON's encoding\n got: %q\nwant: %q", body, rec.Body.Bytes())
	}
	if want := rec.Header().Get("Content-Type"); ctype != want {
		t.Errorf("Content-Type %q, want %q", ctype, want)
	}
}

// /result serves the document encoded once at settle, indented to exactly
// the bytes writeJSON's encoder writes — live, and after a restart serves
// it from the journal.
func TestResultBytesMatchWriteJSON(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	id := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":300,"rounds":50,"seed":11,"error_rate":0.01}`)
	waitState(t, ts, id, StateDone)
	live, ctype := getRaw(t, ts.URL+"/api/v1/jobs/"+id+"/result")
	assertWriteJSONBytes(t, live, ctype)
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	_, ts2 := newDurableServer(t, dir)
	recovered, ctype := getRaw(t, ts2.URL+"/api/v1/jobs/"+id+"/result")
	if !bytes.Equal(recovered, live) {
		t.Errorf("recovered /result differs from the live one\n got: %s\nwant: %s", recovered, live)
	}
	assertWriteJSONBytes(t, recovered, ctype)
}

// A journal whose state record carries the result as a decoded document —
// the record shape of daemons that kept the result as a struct — replays,
// and /result serves writeJSON's encoding of that document.
func TestStructResultJournalReplays(t *testing.T) {
	dir := t.TempDir()
	doc := &jobResult{
		ID:           "j-0001-000001",
		FinalFitness: []float64{1.5, 2.0625, 0.1},
		Fingerprints: []string{"00000000000000aa", "00000000000000bb", "00000000000000cc"},
		MeanFitness:  []stats.Point{{Generation: 0, Value: 1.25}},
		Ranks:        1,
	}
	type structRecord struct {
		Kind    string     `json:"kind"`
		Epoch   int        `json:"epoch,omitempty"`
		Job     string     `json:"job,omitempty"`
		Spec    *JobSpec   `json:"spec,omitempty"`
		State   State      `json:"state,omitempty"`
		Gen     int        `json:"generation,omitempty"`
		EventID int        `json:"event_id,omitempty"`
		Result  *jobResult `json:"result,omitempty"`
	}
	var journal bytes.Buffer
	for _, rec := range []structRecord{
		{Kind: recMeta, Epoch: 1},
		{Kind: recSubmit, Job: doc.ID, Spec: &JobSpec{Memory: 1, SSets: 3, Generations: 10, Seed: 1}},
		{Kind: recState, Job: doc.ID, State: StateDone, Gen: 10, EventID: 4, Result: doc},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal.Write(append(line, '\n'))
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newDurableServer(t, dir)
	body, _ := getRaw(t, ts.URL+"/api/v1/jobs/"+doc.ID+"/result")
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, doc)
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Errorf("replayed /result\n got: %s\nwant: %s", body, rec.Body.Bytes())
	}
}

// Catalog ≡ code for the daemon's registry: every family a durable daemon
// registers — its own egd_server_* series and the egd_* counters folded in
// from finished runs — has a row in docs/OBSERVABILITY.md.
func TestServerMetricsCatalogued(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir())
	id := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":600,"rounds":50,"seed":5,"error_rate":0.01,"metrics":true}`)
	waitState(t, ts, id, StateDone)
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "", `{"memory":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: got %d, want 400", resp.StatusCode)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	snap := s.reg.Snapshot()
	families := make(map[string]bool)
	for _, c := range snap.Counters {
		families[metricFamily(c.Name)] = true
	}
	for _, g := range snap.Gauges {
		families[metricFamily(g.Name)] = true
	}
	for _, want := range []string{
		"egd_server_checkpoint_writes_wallclock_total",
		"egd_server_checkpoint_superseded_wallclock_total",
		"egd_server_jobs_rejected_total",
		"egd_games_played_total",
	} {
		if !families[want] {
			t.Errorf("daemon registered no %s", want)
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
