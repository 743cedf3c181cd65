package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// newTestServer starts a daemon behind an httptest listener. The Server is
// closed before the listener so in-flight SSE streams end (hub close) before
// httptest waits on connections.
func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	_, ts := startServer(t, opts, nil)
	return ts
}

// startServer is newTestServer for tests that also drive the Server itself
// or observe its handler through wrap (nil: serve the handler as is).
func startServer(t *testing.T, opts Options, wrap func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

// doJSON issues one request and decodes the response body into a generic map.
func doJSON(t *testing.T, method, url, tenant, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decoding response %q: %v", raw, err)
		}
	}
	return resp, m
}

// submit POSTs a spec and asserts 202, returning the job id.
func submit(t *testing.T, ts *httptest.Server, tenant, spec string) string {
	t.Helper()
	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", tenant, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, body %v", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("submit: no job id in %v", m)
	}
	return id
}

func status(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, m := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: got %d, body %v", id, resp.StatusCode, m)
	}
	return m
}

// waitUntil polls a job's status until pred accepts it, failing after ~30s.
func waitUntil(t *testing.T, ts *httptest.Server, id string, what string, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	for i := 0; i < 15000; i++ {
		m := status(t, ts, id)
		if pred(m) {
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s; last status %v", id, what, status(t, ts, id))
	return nil
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) map[string]any {
	t.Helper()
	return waitUntil(t, ts, id, string(want), func(m map[string]any) bool {
		got, _ := m["state"].(string)
		if State(got).terminal() && got != string(want) {
			t.Fatalf("job %s settled as %s (error %v), want %s", id, got, m["error"], want)
		}
		return got == string(want)
	})
}

func result(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, m := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: got %d, body %v", id, resp.StatusCode, m)
	}
	return m
}

// The HTTP result must match a direct engine run of the same spec bit for
// bit: the service adds scheduling, not simulation semantics. The second
// job is the paper's Fig. 2 configuration, which needs every rate override
// and the "fermi" field to arrive intact.
func TestSubmitRunsToDone(t *testing.T) {
	ts := newTestServer(t, Options{})
	plain := `{"memory":1,"ssets":8,"generations":60,"rounds":20,"seed":7}`
	var js JobSpec
	if err := json.Unmarshal([]byte(plain), &js); err != nil {
		t.Fatal(err)
	}
	plainCfg, err := js.Config()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		cfg  sim.Config
	}{
		{plain, plainCfg},
		{`{"memory":1,"ssets":8,"generations":300,"seed":5,"mixed":true,"error_rate":0.01,"fermi":true,"pc_rate":1,"beta":50}`,
			core.WSLSValidationConfig(8, 300, 5)},
	} {
		id := submit(t, ts, "", tc.spec)
		waitState(t, ts, id, StateDone)
		res := result(t, ts, id)

		fitness, _ := res["final_fitness"].([]any)
		if len(fitness) != 8 {
			t.Fatalf("%s: final_fitness has %d entries, want 8", tc.spec, len(fitness))
		}
		prints, _ := res["fingerprints"].([]any)
		if len(prints) != 8 {
			t.Fatalf("%s: fingerprints has %d entries, want 8", tc.spec, len(prints))
		}
		direct, err := sim.RunSequential(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range direct.Final {
			want := fmt.Sprintf("%016x", st.Fingerprint())
			if prints[i] != want {
				t.Fatalf("%s: fingerprint[%d]: HTTP %v != direct %s", tc.spec, i, prints[i], want)
			}
		}
		for i, f := range direct.FinalFitness {
			if fitness[i].(float64) != f {
				t.Fatalf("%s: final_fitness[%d]: HTTP %v != direct %v", tc.spec, i, fitness[i], f)
			}
		}
	}
}

// stripNondeterministic removes the only fields allowed to differ between a
// paused+resumed run and an uninterrupted one.
func stripNondeterministic(m map[string]any) {
	delete(m, "id")
	delete(m, "elapsed_seconds")
}

func TestPauseResumeBitIdenticalOverHTTP(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	// Noisy, so the payoff table stands aside and the job runs long enough
	// to pause: a noise-free one is served by type in milliseconds.
	spec := `{"memory":1,"ssets":12,"generations":1500,"rounds":100,"error_rate":0.01,"seed":99,"full_recompute":true}`

	// Job A: pause mid-run, then resume.
	a := submit(t, ts, "", spec)
	waitUntil(t, ts, a, "generation >= 100", func(m map[string]any) bool {
		if s, _ := m["state"].(string); State(s).terminal() {
			t.Fatalf("job %s finished before it could be paused: %v", a, m)
		}
		g, _ := m["generation"].(float64)
		return g >= 100
	})
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+a+"/pause", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: got %d, body %v", resp.StatusCode, m)
	}
	st := waitState(t, ts, a, StatePaused)
	pausedAt, _ := st["generation"].(float64)
	if pausedAt <= 0 || pausedAt >= 1500 {
		t.Fatalf("paused at generation %v, want strictly mid-run", pausedAt)
	}
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+a+"/resume", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, a, StateDone)
	resA := result(t, ts, a)

	// Job B: the same spec, uninterrupted.
	b := submit(t, ts, "", spec)
	waitState(t, ts, b, StateDone)
	resB := result(t, ts, b)

	stripNondeterministic(resA)
	stripNondeterministic(resB)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("paused+resumed result diverges from uninterrupted run\npaused:   %v\nstraight: %v", resA, resB)
	}
}

func TestLoadManyConcurrentJobs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 4})
	var ids []string
	for i := 0; i < 50; i++ {
		ids = append(ids, submit(t, ts, "",
			fmt.Sprintf(`{"memory":1,"ssets":8,"generations":40,"rounds":10,"seed":%d}`, i+1)))
	}
	// Two large jobs ride along: one full-recompute sequential, one parallel.
	ids = append(ids, submit(t, ts, "",
		`{"memory":1,"ssets":16,"generations":300,"rounds":50,"seed":500,"full_recompute":true}`))
	ids = append(ids, submit(t, ts, "",
		`{"memory":1,"ssets":16,"generations":300,"rounds":50,"seed":501,"ranks":3}`))

	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}
	resp, m := doJSON(t, "GET", ts.URL+"/api/v1/jobs", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: got %d", resp.StatusCode)
	}
	jobs, _ := m["jobs"].([]any)
	if len(jobs) != 52 {
		t.Fatalf("list has %d jobs, want 52", len(jobs))
	}
	for _, j := range jobs {
		jm := j.(map[string]any)
		if jm["state"] != string(StateDone) {
			t.Fatalf("job %v is %v, want done", jm["id"], jm["state"])
		}
	}
}

// longSpec runs long enough that control-plane requests land mid-run: its
// noise keeps every match out of the payoff table.
const longSpec = `{"memory":1,"ssets":16,"generations":200000,"rounds":200,"error_rate":0.01,"seed":1,"full_recompute":true}`

func TestTenantActiveLimit(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, Tenant: TenantLimits{MaxActive: 1}})
	a := submit(t, ts, "alice", longSpec)

	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "alice", longSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: got %d, want 429; body %v", resp.StatusCode, m)
	}
	if m["reason"] != "tenant_active_limit" {
		t.Fatalf("reason = %v, want tenant_active_limit", m["reason"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// Another tenant is not affected by alice's cap.
	b := submit(t, ts, "bob", `{"memory":1,"ssets":8,"generations":20,"rounds":10,"seed":2}`)

	// Cancelling alice's job frees her slot.
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+a+"/cancel", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, a, StateCanceled)
	c := submit(t, ts, "alice", `{"memory":1,"ssets":8,"generations":20,"rounds":10,"seed":3}`)
	waitState(t, ts, b, StateDone)
	waitState(t, ts, c, StateDone)
}

func TestTenantRateLimit(t *testing.T) {
	var clock atomic.Int64
	ts := newTestServer(t, Options{
		Tenant: TenantLimits{RatePerSec: 1, Burst: 2},
		Now:    clock.Load,
	})
	small := `{"memory":1,"ssets":8,"generations":10,"rounds":10,"seed":5}`
	submit(t, ts, "alice", small)
	submit(t, ts, "alice", small)

	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "alice", small)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst-exhausted submit: got %d, body %v", resp.StatusCode, m)
	}
	if m["reason"] != "tenant_rate_limit" {
		t.Fatalf("reason = %v, want tenant_rate_limit", m["reason"])
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want >= 1", ra)
	}

	// One refill interval later the bucket has a token again.
	clock.Add(int64(time.Second))
	submit(t, ts, "alice", small)
	// An untouched tenant still has its full burst.
	submit(t, ts, "bob", small)
}

func TestAdmissionPerJobCeiling(t *testing.T) {
	ts := newTestServer(t, Options{MaxJobSeconds: 0.5})
	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "",
		`{"memory":3,"ssets":64,"generations":1000000,"seed":1,"full_recompute":true}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submit: got %d, body %v", resp.StatusCode, m)
	}
	if m["reason"] != "job_over_budget" {
		t.Fatalf("reason = %v, want job_over_budget", m["reason"])
	}
	modelled, _ := m["modelled_seconds"].(float64)
	if modelled <= 0.5 {
		t.Fatalf("modelled_seconds = %v, want > ceiling 0.5", modelled)
	}
	if budget, _ := m["budget_seconds"].(float64); budget != 0.5 {
		t.Fatalf("budget_seconds = %v, want 0.5", budget)
	}

	// A small job still fits under the same ceiling.
	id := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":20,"rounds":10,"seed":1}`)
	waitState(t, ts, id, StateDone)
}

func TestAdmissionOutstandingBudget(t *testing.T) {
	var js JobSpec
	if err := json.Unmarshal([]byte(longSpec), &js); err != nil {
		t.Fatal(err)
	}
	cfg, err := js.Config()
	if err != nil {
		t.Fatal(err)
	}
	est := DefaultCostModel().EstimateSeconds(cfg)
	if est <= 0 {
		t.Fatalf("estimate %v, want > 0", est)
	}

	ts := newTestServer(t, Options{Workers: 1, MaxOutstandingSeconds: 1.5 * est})
	a := submit(t, ts, "", longSpec) // fits; occupies the budget while non-terminal

	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "", longSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: got %d, body %v", resp.StatusCode, m)
	}
	if m["reason"] != "capacity" {
		t.Fatalf("reason = %v, want capacity", m["reason"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("capacity 429 without a Retry-After header")
	}

	// Terminal jobs release their reservation.
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+a+"/cancel", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, a, StateCanceled)
	b := submit(t, ts, "", longSpec)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+b+"/cancel", "", "")
	waitState(t, ts, b, StateCanceled)
}

// fullQueue starts a one-worker daemon whose one queue slot is taken: a
// job running and one queued behind it, both long and tenant "busy"'s.
func fullQueue(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Workers, opts.QueueDepth = 1, 1
	s, ts := startServer(t, opts, nil)
	waitState(t, ts, submit(t, ts, "busy", longSpec), StateRunning)
	submit(t, ts, "busy", longSpec)
	return s, ts
}

// assertQueueFull asserts a 429 queue_full refusal with a Retry-After.
func assertQueueFull(t *testing.T, what string, resp *http.Response, m map[string]any) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests || m["reason"] != "queue_full" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("%s: %d (Retry-After %q), body %v; want 429 queue_full with a Retry-After", what, resp.StatusCode, resp.Header.Get("Retry-After"), m)
	}
}

// A submission that finds the queue full is refused with 429 and a
// Retry-After, counted as queue_full, and gives back what admission took —
// the tenant's slot and the outstanding budget — so the same submission is
// refused for the full queue again, not for the tenant's cap or the budget.
func TestSubmitIntoFullQueue(t *testing.T) {
	var js JobSpec
	if err := json.Unmarshal([]byte(longSpec), &js); err != nil {
		t.Fatal(err)
	}
	cfg, err := js.Config()
	if err != nil {
		t.Fatal(err)
	}
	est := DefaultCostModel().EstimateSeconds(cfg)
	// Room for the two jobs in flight and one more, which a leaked budget
	// or slot would fill.
	s, ts := fullQueue(t, Options{MaxOutstandingSeconds: 3.5 * est, Tenant: TenantLimits{MaxActive: 3}})
	for try := 1; try <= 2; try++ {
		resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "busy", longSpec)
		assertQueueFull(t, fmt.Sprintf("submission %d", try), resp, m)
	}
	s.mgr.mu.Lock()
	outstanding := s.mgr.outstanding
	s.mgr.mu.Unlock()
	if outstanding != 2*est {
		t.Errorf("outstanding %v s, want the two admitted jobs' %v s", outstanding, 2*est)
	}
	if n := s.mgr.reg.Counter(`egd_server_jobs_rejected_total{reason="queue_full"}`).Load(); n != 2 {
		t.Errorf("queue_full rejections counted %d, want 2", n)
	}
}

// A resume that finds the queue full is refused with 429 and a
// Retry-After, and the job is paused again everywhere it shows: its status
// and, as the last state event, its event stream.
func TestResumeIntoFullQueue(t *testing.T) {
	s, ts := startServer(t, Options{Workers: 1, QueueDepth: 1}, nil)
	id := submit(t, ts, "", longSpec)
	waitState(t, ts, id, StateRunning)
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/pause", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, id, StatePaused)
	waitState(t, ts, submit(t, ts, "", longSpec), StateRunning)
	submit(t, ts, "", longSpec)

	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/resume", "", "")
	assertQueueFull(t, "resume", resp, m)
	if st := status(t, ts, id); st["state"] != string(StatePaused) {
		t.Errorf("status after the refused resume: %v, want paused", st["state"])
	}
	job, _ := s.mgr.get(id)
	events, _, _ := job.hub.after(0)
	var last, states []string
	for _, ev := range events {
		if ev.Kind == "state" {
			var st struct{ State string }
			if err := json.Unmarshal(ev.Data, &st); err != nil {
				t.Fatal(err)
			}
			states = append(states, st.State)
		}
	}
	if len(states) > 0 {
		last = states[len(states)-1:]
	}
	if fmt.Sprint(last) != "[paused]" {
		t.Errorf("state events %v, want the last one paused", states)
	}
}

// sseEventRec is one parsed SSE frame.
type sseEventRec struct {
	id   int
	kind string
	data string
}

func parseSSE(t *testing.T, r io.Reader) []sseEventRec {
	t.Helper()
	var events []sseEventRec
	var cur sseEventRec
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.kind != "" {
				events = append(events, cur)
			}
			cur = sseEventRec{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id) //nolint:errcheck
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

func TestSSELiveStreamAndReplay(t *testing.T) {
	ts := newTestServer(t, Options{})
	id := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":500,"rounds":50,"seed":11,"sample_stride":10,"full_recompute":true}`)

	// Attach while the job runs: the stream delivers backlog + live events
	// and ends when the job settles.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, resp.Body)
	resp.Body.Close()
	if len(events) < 3 {
		t.Fatalf("stream had %d events, want at least state+samples+state", len(events))
	}
	for i, ev := range events {
		if ev.id != events[0].id+i {
			t.Fatalf("event ids not dense: %v", events)
		}
	}
	samples := 0
	for _, ev := range events {
		if ev.kind == "sample" {
			samples++
			var se sampleEvent
			if err := json.Unmarshal([]byte(ev.data), &se); err != nil {
				t.Fatalf("sample payload %q: %v", ev.data, err)
			}
			if se.Cooperation < 0 || se.Cooperation > 1 {
				t.Fatalf("cooperation %v out of [0,1]", se.Cooperation)
			}
		}
	}
	if samples == 0 {
		t.Fatal("stream carried no sample events")
	}
	last := events[len(events)-1]
	if last.kind != "state" || !strings.Contains(last.data, string(StateDone)) {
		t.Fatalf("stream ended with %s %q, want done state", last.kind, last.data)
	}

	// Reconnecting with Last-Event-ID replays only the tail of the retained
	// timeline, even after the job settled.
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(last.id-1))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := parseSSE(t, resp2.Body)
	resp2.Body.Close()
	if len(tail) != 1 || tail[0].id != last.id || tail[0].kind != last.kind {
		t.Fatalf("replay after id %d returned %v, want exactly the final event", last.id-1, tail)
	}
}

// A subscriber is a cursor into the retained timeline, so one that stops
// reading never blocks publish and loses nothing: whenever it reads again,
// the dense remainder after its last id is there.
func TestHubSubscriberThatNeverReadsLosesNothing(t *testing.T) {
	h := newHub()
	events, wake, closed := h.after(0)
	if len(events) != 0 || closed {
		t.Fatalf("fresh hub: %d events, closed=%v", len(events), closed)
	}
	// A second subscriber follows the stream live, the way handleEvents
	// does, while the first one sleeps on its cursor.
	const total, seen = 1000, 64
	followed := make(chan int, 1)
	go func() {
		last := 0
		for {
			events, wake, closed := h.after(last)
			for _, ev := range events {
				if ev.ID != last+1 {
					t.Errorf("live subscriber read id %d after %d", ev.ID, last)
				}
				last = ev.ID
			}
			if closed {
				followed <- last
				return
			}
			<-wake
		}
	}()
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < total; i++ {
			h.publish("tick", i)
		}
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a subscriber that does not read")
	}
	select {
	case <-wake:
	default:
		t.Fatal("the first publish did not wake the waiting subscriber")
	}
	events, wake, closed = h.after(seen)
	if len(events) != total-seen || closed {
		t.Fatalf("read after id %d returned %d events (closed=%v), want %d", seen, len(events), closed, total-seen)
	}
	for i, ev := range events {
		if ev.ID != seen+1+i {
			t.Fatalf("event %d has id %d, want %d: the timeline is not dense", i, ev.ID, seen+1+i)
		}
	}
	// Closing wakes the waiters; what they then read is final, and later
	// publishes are ignored.
	h.close()
	select {
	case <-wake:
	default:
		t.Fatal("close did not wake the waiting subscriber")
	}
	h.publish("late", 0)
	if events, _, closed = h.after(total); len(events) != 0 || !closed {
		t.Fatalf("closed hub: %d events after the last id, closed=%v", len(events), closed)
	}
	select {
	case last := <-followed:
		if last != total {
			t.Fatalf("live subscriber ended at id %d, want %d", last, total)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live subscriber did not end when the hub closed")
	}
}

// A client that opens the event stream and then stops reading stalls the
// TCP send buffer; the per-event write deadline (Options.SSEWriteTimeout)
// must end the handler instead of letting it hang on the dead peer.
func TestSSEStalledClientEndsWithinWriteTimeout(t *testing.T) {
	const writeTimeout = 200 * time.Millisecond
	ended := make(chan time.Duration, 1)
	s, ts := startServer(t, Options{Workers: 1, SSEWriteTimeout: writeTimeout}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			if strings.HasSuffix(r.URL.Path, "/events") {
				ended <- time.Since(start)
			}
		})
	})
	// The single worker is busy with the first job, so the second stays
	// queued with an open, otherwise silent hub.
	submit(t, ts, "", longSpec)
	job, ok := s.mgr.get(submit(t, ts, "", longSpec))
	if !ok {
		t.Fatal("queued job not registered")
	}
	// 16 MiB of backlog: more than the loopback socket buffers can absorb.
	blob := strings.Repeat("x", 256<<10)
	for i := 0; i < 64; i++ {
		job.hub.publish("blob", blob)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /api/v1/jobs/%s/events HTTP/1.1\r\nHost: stalled\r\n\r\n", job.ID); err != nil {
		t.Fatal(err)
	}
	// ... and never read. The bound is generous against the write timeout
	// but far below the 30 s default, let alone a hang.
	select {
	case took := <-ended:
		if took < writeTimeout {
			t.Errorf("handler ended after %v, before one write timeout (%v): the client never stalled it", took, writeTimeout)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("event handler still writing to a stalled client after 10s (write timeout %v)", writeTimeout)
	}
}

func TestSpecAndTransitionErrors(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	badSpecs := []string{
		`{"memory":1,"ssets":8,"generations":10,"generatoins":10}`, // unknown field
		`{"memory":0,"ssets":8,"generations":10}`,                  // memory out of range
		`{"memory":1,"ssets":8,"generations":10,"ranks":-1}`,       // ranks 0 and 1 are the sequential engine; below that is nothing
		`{"memory":1,"ssets":2,"generations":10,"ranks":4}`,        // more workers than games
		`not json`,
	}
	for _, spec := range badSpecs {
		resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: got %d (%v), want 400", spec, resp.StatusCode, m)
		}
		if m["reason"] != "invalid_spec" {
			t.Fatalf("spec %q: reason %v, want invalid_spec", spec, m["reason"])
		}
	}

	if resp, _ := doJSON(t, "GET", ts.URL+"/api/v1/jobs/j-999999", "", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: got %d, want 404", resp.StatusCode)
	}

	// "ranks": 1 is the sequential engine, as `egdsim -ranks 1` is, and a
	// spec may ask for its own checkpoint cadence (both were 400 before
	// sim.Spec).
	id := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":20,"rounds":10,"seed":1,"ranks":1,"checkpoint_every":5}`)
	waitState(t, ts, id, StateDone)
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/pause", "", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pause done job: got %d (%v), want 409", resp.StatusCode, m)
	}
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/resume", "", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume done job: got %d (%v), want 409", resp.StatusCode, m)
	}
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+id+"/cancel", "", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done job: got %d (%v), want 409", resp.StatusCode, m)
	}

	long := submit(t, ts, "", longSpec)
	if resp, m := doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+long+"/result", "", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: got %d (%v), want 409", resp.StatusCode, m)
	}
	doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+long+"/cancel", "", "")
	waitState(t, ts, long, StateCanceled)
}

// A valid submission that arrives once Drain has begun is refused as
// retryable (503 shutting_down + Retry-After), not as a bad spec: the
// client must resubmit to the restarted daemon, never drop the job.
func TestSubmitAfterDrainIsRetryable(t *testing.T) {
	s, ts := startServer(t, Options{Workers: 1}, nil)
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs", "", `{"memory":1,"ssets":8,"generations":20,"rounds":10,"seed":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable || m["reason"] != "shutting_down" {
		t.Fatalf("submit after drain: got %d (%v), want 503 shutting_down", resp.StatusCode, m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 during shutdown carries no Retry-After")
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	running := submit(t, ts, "", longSpec)
	queued := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":20,"rounds":10,"seed":9}`)

	// The queued job never starts: its cancel flag is seen at dequeue.
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+queued+"/cancel", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: got %d, body %v", resp.StatusCode, m)
	}
	if resp, m := doJSON(t, "POST", ts.URL+"/api/v1/jobs/"+running+"/cancel", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: got %d, body %v", resp.StatusCode, m)
	}
	waitState(t, ts, running, StateCanceled)
	waitState(t, ts, queued, StateCanceled)
}

// A client that sees a job done finds it counted: settle updates the
// registry before it publishes the terminal state. The test parks settle on
// Manager.mu — its first step after publishing — so a daemon that counts
// afterwards is caught between the two every time, not once in 150 runs.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := startServer(t, Options{}, nil)
	id := submit(t, ts, "", `{"memory":1,"ssets":8,"generations":2000,"rounds":100,"seed":3,"full_recompute":true,"metrics":true}`)
	waitUntil(t, ts, id, "a worker", func(m map[string]any) bool { return m["state"] != string(StateQueued) })
	job, _ := s.mgr.get(id)
	s.mgr.mu.Lock()
	for i := 0; job.status().State != StateDone; i++ {
		if i == 15000 {
			s.mgr.mu.Unlock()
			t.Fatalf("job %s never finished: %+v", id, job.status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	var parked strings.Builder
	err := metrics.WritePrometheus(&parked, s.reg.Snapshot())
	s.mgr.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{parked.String(), string(body)} {
		for _, want := range []string{
			"egd_server_jobs_submitted_total 1",
			`egd_server_jobs_finished_total{state="done"} 1`,
			"egd_server_jobs_running 0",
			// The finished run's own egd_* counters folded into the registry.
			"egd_games_played_total",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("/metrics of a daemon whose one job reads done is missing %q:\n%s", want, text)
			}
		}
	}
}
