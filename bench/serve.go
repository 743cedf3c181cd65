package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/sim"
)

// Workload 8: small jobs against the service's real handler. Two clients
// form a closed loop — each submits its next job only after fetching the
// previous result, as tenants waiting for replies do — so there is no
// arrival rate to sweep.
const (
	serveClients  = 2
	serveMemory   = 1
	serveSSets    = 16
	serveGens     = 2000
	serveVerify   = 10 // every 10th job is recomputed in process
	serveDeadline = 30 * time.Second
	serveWarmup   = 10  // unmeasured jobs before the window opens
	ephemeralJobs = 100 // jobs of the traced pass without a DataDir
	serveSlices   = 8   // sub-windows -compare takes quartiles over
)

// jobTiming is one job as its client saw it.
type jobTiming struct {
	index                 int
	start, end            time.Time
	submit, first, result time.Duration // POST, POST->first event, GET /result
	events, reconnects    int
	estimated, elapsed    float64 // admission's model vs the run's own clock
	refused               bool
	err                   error
}

func (j jobTiming) wall() time.Duration { return j.end.Sub(j.start) }

// wireResult is the part of /result the benchmark verifies.
type wireResult struct {
	FinalFitness   []float64    `json:"final_fitness"`
	Fingerprints   []string     `json:"fingerprints"`
	Counters       sim.Counters `json:"counters"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
}

// serveClient is one closed-loop tenant. It keeps a single http.Client so
// connections are reused across its jobs.
type serveClient struct {
	base string
	http *http.Client
	rec  *recorder
	lane int
}

func serveSpec(seed uint64, index, gens int) server.JobSpec {
	return server.JobSpec{
		Memory: serveMemory, SSets: serveSSets, Generations: gens,
		Seed: 100000*seed + uint64(index),
	}
}

// runJob drives one job to its result: POST, follow the event stream until
// a terminal state, then GET /result. The hub drops subscribers that lag,
// so a stream ending before a terminal state is normal: reconnect with
// Last-Event-ID and carry on. The whole job runs under one deadline.
func (c *serveClient) runJob(parent, index int, spec server.JobSpec) (jobTiming, *wireResult) {
	t := jobTiming{index: index, start: time.Now()}
	fail := func(err error) (jobTiming, *wireResult) {
		t.err, t.end = err, time.Now()
		return t, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
	defer cancel()

	body, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	job := c.rec.begin("job", parent, index, c.lane, "")
	defer c.rec.end(job)
	sp := c.rec.begin("job.submit", job, index, c.lane, "")
	var status struct {
		ID               string  `json:"id"`
		EstimatedSeconds float64 `json:"estimated_seconds"`
	}
	code, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", body, &status)
	c.rec.end(sp)
	t.submit = time.Since(t.start)
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}
	if code != http.StatusAccepted {
		t.refused = true
		return fail(fmt.Errorf("submit: status %d", code))
	}
	t.estimated = status.EstimatedSeconds
	c.rec.setID(job, status.ID)
	c.rec.setID(sp, status.ID)

	sp = c.rec.begin("job.events", job, index, c.lane, status.ID)
	state, err := c.follow(ctx, status.ID, &t)
	c.rec.end(sp)
	if err != nil {
		return fail(fmt.Errorf("events: %w", err))
	}
	if state != "done" {
		return fail(fmt.Errorf("job ended %s", state))
	}

	sp = c.rec.begin("job.result", job, index, c.lane, status.ID)
	fetch := time.Now()
	var res wireResult
	code, err = c.do(ctx, http.MethodGet, "/api/v1/jobs/"+status.ID+"/result", nil, &res)
	c.rec.end(sp)
	t.end = time.Now()
	t.result = t.end.Sub(fetch)
	if err != nil {
		return fail(fmt.Errorf("result: %w", err))
	}
	if code != http.StatusOK {
		return fail(fmt.Errorf("result: status %d", code))
	}
	t.elapsed = res.ElapsedSeconds
	return t, &res
}

// do sends one request and decodes the fully read JSON body into out.
func (c *serveClient) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// follow reads the job's event stream until a terminal state event,
// reconnecting from the last seen id whenever the stream ends early.
func (c *serveClient) follow(ctx context.Context, id string, t *jobTiming) (state string, err error) {
	lastID := 0
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			t.reconnects++
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/jobs/"+id+"/events", nil)
		if err != nil {
			return "", err
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return "", fmt.Errorf("status %d", resp.StatusCode)
		}
		state, err := readEvents(resp.Body, &lastID, t)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if state != "" {
			return state, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
	}
}

// readEvents parses one SSE response. It returns the terminal state when a
// `state` event carries one, "" when the stream ended first.
func readEvents(body io.Reader, lastID *int, t *jobTiming) (string, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var kind, data string
	id := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.Atoi(line[4:])
		case strings.HasPrefix(line, "event: "):
			kind = line[7:]
		case strings.HasPrefix(line, "data: "):
			data = line[6:]
		case line == "":
			if id > *lastID {
				*lastID = id
				if t.events == 0 {
					t.first = time.Since(t.start)
				}
				t.events++
				if kind == "state" {
					var ev struct {
						State string `json:"state"`
					}
					if err := json.Unmarshal([]byte(data), &ev); err != nil {
						return "", fmt.Errorf("state event %d: %w", id, err)
					}
					switch ev.State {
					case "done", "failed", "canceled":
						return ev.State, nil
					}
				}
			}
			kind, data, id = "", "", 0
		}
	}
	// A read error here is the stream being cut (lagging subscriber
	// dropped, deadline): the caller's reconnect or ctx decides.
	return "", nil
}

// verifyJob recomputes a job in process through the public JobSpec ->
// Config mapping and compares what /result reported.
func verifyJob(spec server.JobSpec, got *wireResult) error {
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	want, err := sim.RunSequential(cfg)
	if err != nil {
		return err
	}
	if got.Counters != want.Counters {
		return fmt.Errorf("counters %+v, in-process %+v", got.Counters, want.Counters)
	}
	if len(got.FinalFitness) != len(want.FinalFitness) || len(got.Fingerprints) != len(want.Final) {
		return fmt.Errorf("result has %d fitnesses / %d fingerprints, want %d", len(got.FinalFitness), len(got.Fingerprints), len(want.Final))
	}
	for i, f := range want.FinalFitness {
		if math.Float64bits(f) != math.Float64bits(got.FinalFitness[i]) {
			return fmt.Errorf("final_fitness[%d] = %v, in-process %v", i, got.FinalFitness[i], f)
		}
	}
	for i, s := range want.Final {
		if fp := fmt.Sprintf("%016x", s.Fingerprint()); fp != got.Fingerprints[i] {
			return fmt.Errorf("fingerprints[%d] = %s, in-process %s", i, got.Fingerprints[i], fp)
		}
	}
	return nil
}

// verifyItem is a finished job kept for the in-process check.
type verifyItem struct {
	spec server.JobSpec
	res  *wireResult
	idx  int
}

// serveWindow runs the closed loop against base until d has passed (or,
// with maxJobs > 0, until that many jobs have been started) and returns
// every job's timing, the jobs to verify, and the window's length.
// Verification happens after the window so it is not timed.
func serveWindow(base string, o options, rec *recorder, parent, gens int, d time.Duration, maxJobs, firstIndex int) ([]jobTiming, []verifyItem, time.Duration) {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		timings  []jobTiming
		toVerify []verifyItem
		wg       sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := &serveClient{base: base, http: &http.Client{Transport: &http.Transport{}}, rec: rec, lane: lane}
			defer c.http.CloseIdleConnections()
			for {
				n := int(next.Add(1)) - 1
				if (maxJobs > 0 && n >= maxJobs) || (maxJobs == 0 && !time.Now().Before(deadline)) {
					return
				}
				spec := serveSpec(o.seed, firstIndex+n, gens)
				t, res := c.runJob(parent, firstIndex+n, spec)
				mu.Lock()
				timings = append(timings, t)
				if res != nil && n%serveVerify == 0 {
					toVerify = append(toVerify, verifyItem{spec, res, firstIndex + n})
				}
				mu.Unlock()
			}
		}(cl + 1)
	}
	wg.Wait()
	return timings, toVerify, time.Since(start)
}

// runServe measures workload 8 and, in the traced pass, the layers under
// it. It returns the measured window's length.
func runServe(r *runResult, o options, rec *recorder, root int, tmp string) (timing, error) {
	gens, maxJobs, warm, passes := serveGens, 0, serveWarmup, setupPasses
	window := time.Duration(o.seconds * float64(time.Second))
	if o.quick {
		gens, maxJobs, warm, passes = serveGens/quickDiv, 30, 0, 1
	}

	// Set-up: boot a durable server over a fresh data directory and run the
	// warm-up jobs. Every pass but the last is torn down again; the window
	// runs against the last.
	var (
		srv     *server.Server
		ts      *httptest.Server
		dataDir string
	)
	shutdown := func() {
		if srv != nil {
			ts.Close()
			srv.Close()
			srv = nil
		}
	}
	defer shutdown()
	repeated, err := steadySetup(passes, func(pass int) error {
		shutdown()
		dataDir = filepath.Join(tmp, fmt.Sprintf("data%d", pass))
		sp := rec.begin("setup.server.New", root, -1, 0, "")
		var err error
		srv, err = server.New(server.Options{Workers: 2, DataDir: dataDir})
		rec.end(sp)
		if err != nil {
			return err
		}
		ts = httptest.NewServer(srv.Handler())
		if warm == 0 {
			return nil
		}
		sp = rec.begin("setup.warmup", root, -1, 0, "")
		// Warm-up jobs take indices the measured window never reaches.
		timings, _, _ := serveWindow(ts.URL, o, nil, -1, gens, 0, warm, 50000+pass*warm)
		rec.end(sp)
		for _, t := range timings {
			if t.err != nil {
				return fmt.Errorf("serve warm-up job %d: %w", t.index, t.err)
			}
		}
		return nil
	})
	if err != nil {
		return timing{}, err
	}

	sp := rec.begin("window", root, 0, 0, "")
	timings, toVerify, measured := serveWindow(ts.URL, o, rec, sp, gens, window, maxJobs, 0)
	rec.end(sp)

	sp = rec.begin("verify", root, -1, 0, "")
	bad := map[int]error{}
	for _, v := range toVerify {
		if err := verifyJob(v.spec, v.res); err != nil {
			bad[v.idx] = err
		}
	}
	rec.end(sp)

	var walls, submits, firsts, fetches, ratios []float64
	var events, reconnects, refused, okJobs int
	for _, t := range timings {
		r.Attempted++
		if t.refused {
			refused++
		}
		if err := t.err; err != nil {
			r.fail("job %d: %v", t.index, err)
			continue
		}
		if err := bad[t.index]; err != nil {
			r.fail("job %d: /result differs from in-process run: %v", t.index, err)
			continue
		}
		okJobs++
		walls = append(walls, t.wall().Seconds()*1e3)
		submits = append(submits, t.submit.Seconds()*1e3)
		firsts = append(firsts, t.first.Seconds()*1e3)
		fetches = append(fetches, t.result.Seconds()*1e3)
		events += t.events
		reconnects += t.reconnects
		if t.elapsed > 0 {
			ratios = append(ratios, t.estimated/t.elapsed)
		}
	}
	r.notef("verified %d of %d jobs against in-process sim.RunSequential", len(toVerify), len(timings))
	t := timing{measured: measured, repeatedSetup: repeated}
	if okJobs == 0 {
		return t, nil
	}
	r.notef("whole window: %d verified jobs, p50 %.3f ms, %.2f job/s", okJobs, median(walls), float64(okJobs)/measured.Seconds())

	if !o.trace {
		// The window is cut into equal slices, each with its own median
		// job wall and completion rate; the run reports the fast decile of
		// the slices, as the engine workloads do over operations.
		serveSamples(r, timings, bad, gens, measured)
		p50 := fast(r.Samples["job_p50_ms"])
		rate := quantile(r.Samples["jobs_per_s"], 0.90)
		r.Metrics["job_p50_ms"] = p50
		r.Metrics["launch_to_exit_s"] = p50 / 1e3
		r.Metrics["jobs_per_s"] = rate
		r.Metrics["gens_per_s"] = rate * float64(gens)
		return t, nil
	}

	m := r.Metrics
	m["server.submit_ms"] = median(submits)
	m["server.first_event_ms"] = median(firsts)
	m["server.result_fetch_ms"] = median(fetches)
	m["server.job_p98_ms"] = percentile(walls, 98)
	m["server.job_p98_beyond"] = float64(len(walls) - int(math.Ceil(float64(len(walls))*0.98)))
	if pct, beyond := tailPercentile(len(walls)); pct > 0 {
		r.notef("highest percentile with >= 10 samples beyond it: p%d = %.3f ms (%d of %d beyond)", pct, percentile(walls, pct), beyond, len(walls))
	} else {
		r.notef("%d jobs are too few for any tail percentile (need 10 samples beyond it)", len(walls))
	}
	m["server.events_per_job"] = float64(events) / float64(okJobs)
	m["server.sse_reconnects_per_job"] = float64(reconnects) / float64(okJobs)
	m["server.refused_ratio"] = float64(refused) / float64(len(timings))
	m["server.admission_pred_over_measured"] = median(ratios)

	// GET /metrics after the window, when the registry holds every job.
	client := &http.Client{Transport: &http.Transport{}}
	sp = rec.begin("probe.server.metrics", root, -1, 0, "")
	scrape := time.Now()
	resp, err := client.Get(ts.URL + "/metrics")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	m["server.metrics_scrape_ms"] = time.Since(scrape).Seconds() * 1e3
	rec.end(sp)
	client.CloseIdleConnections()
	if err != nil {
		return timing{}, fmt.Errorf("metrics scrape: %w", err)
	}

	// Boot over the finished window's journal: what a restart costs.
	shutdown()
	sp = rec.begin("probe.server.New.replay", root, -1, 0, "")
	boot := time.Now()
	replay, err := server.New(server.Options{Workers: 2, DataDir: dataDir})
	m["server.boot_replay_ms"] = time.Since(boot).Seconds() * 1e3
	rec.end(sp)
	if err != nil {
		return timing{}, fmt.Errorf("boot replay: %w", err)
	}
	replay.Close()

	// The same loop without a DataDir: the difference is what the journal
	// and the checkpoints cost a job.
	sp = rec.begin("probe.server.ephemeral", root, -1, 0, "")
	eph, err := server.New(server.Options{Workers: 2})
	if err != nil {
		return timing{}, err
	}
	ets := httptest.NewServer(eph.Handler())
	n := ephemeralJobs
	if o.quick {
		n = 10
	}
	etimings, _, _ := serveWindow(ets.URL, o, nil, -1, gens, 0, n, 70000)
	ets.Close()
	eph.Close()
	rec.end(sp)
	var ewalls []float64
	for _, t := range etimings {
		if t.err != nil {
			return timing{}, fmt.Errorf("ephemeral job %d: %w", t.index, t.err)
		}
		ewalls = append(ewalls, t.wall().Seconds()*1e3)
	}
	m["server.ephemeral_job_p50_ms"] = median(ewalls)
	m["server.durable_overhead_ms"] = median(walls) - median(ewalls)

	sp = rec.begin("probes", root, -1, 0, "")
	err = probeCheckpoint(r, o, rec, sp, tmp)
	rec.end(sp)
	return t, err
}

// serveSamples splits the window into equal slices and computes each
// end-to-end metric per slice, giving -compare a spread to judge by.
func serveSamples(r *runResult, timings []jobTiming, bad map[int]error, gens int, measured time.Duration) {
	if len(timings) == 0 {
		return
	}
	start := timings[0].start
	for _, t := range timings {
		if t.start.Before(start) {
			start = t.start
		}
	}
	slice := measured / serveSlices
	perSlice := make([][]float64, serveSlices)
	for _, t := range timings {
		if t.err != nil || bad[t.index] != nil {
			continue
		}
		i := int(t.end.Sub(start) / slice)
		if i >= serveSlices {
			i = serveSlices - 1
		}
		perSlice[i] = append(perSlice[i], t.wall().Seconds()*1e3)
	}
	for _, walls := range perSlice {
		if len(walls) == 0 {
			continue
		}
		p50 := median(walls)
		rate := float64(len(walls)) / slice.Seconds()
		r.Samples["job_p50_ms"] = append(r.Samples["job_p50_ms"], p50)
		r.Samples["launch_to_exit_s"] = append(r.Samples["launch_to_exit_s"], p50/1e3)
		r.Samples["jobs_per_s"] = append(r.Samples["jobs_per_s"], rate)
		r.Samples["gens_per_s"] = append(r.Samples["gens_per_s"], rate*float64(gens))
	}
}
