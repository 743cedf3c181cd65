package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed | canceled
//	running → paused → queued (resume) | canceled
//	queued → canceled
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StatePaused   State = "paused"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Control-request values for Job.ctrl.
const (
	ctrlRun int32 = iota
	ctrlPause
	ctrlCancel
	// ctrlDrain parks a job for shutdown: running segments stop at the next
	// generation boundary with a durable snapshot and go back to queued, so
	// the next boot's recovery re-queues them.
	ctrlDrain
)

var (
	errPauseRequested  = errors.New("server: pause requested")
	errCancelRequested = errors.New("server: cancel requested")
	errDrainRequested  = errors.New("server: drain requested")
)

// Job is one simulation run owned by the daemon: the tenant's spec, the
// normalised engine configuration, the live control/progress state, and —
// across a pause — the checkpoint the next segment resumes from.
type Job struct {
	ID     string
	Tenant string
	Spec   JobSpec
	// cfg is the validated, default-normalised configuration of the whole
	// job; every segment is this configuration resumed from a snapshot.
	cfg sim.Config
	// EstimatedSeconds is the admission controller's modelled cost.
	EstimatedSeconds float64

	hub *hub
	// sink holds the job's resume snapshots: an in-memory sink by default,
	// under -data-dir a behindSink writing on-disk, crash-safe files behind
	// the engine. Each snapshot is the complete run so far — strategies,
	// counters, series.
	sink sim.CheckpointSink
	ctrl atomic.Int32

	mu     sync.Mutex
	state  State
	gen    int // last generation boundary reached
	errMsg string
	// settling is set by the first settle: the terminal state itself only
	// becomes visible once it is journaled.
	settling bool
	// resuming is set while a Resume journals the job's queued state: the
	// job still reads paused, refuses a second Resume, and is cancelled as
	// the queued job it is about to be.
	resuming bool
	// result is the finished run's /result document, encoded once at
	// settle; /result serves it and the journal persists it, so a recovered
	// daemon answers for done jobs without re-running them.
	result json.RawMessage
}

// jobStatus is the wire form of a job's state.
type jobStatus struct {
	ID               string  `json:"id"`
	Tenant           string  `json:"tenant"`
	State            State   `json:"state"`
	Generation       int     `json:"generation"`
	Generations      int     `json:"generations"`
	EstimatedSeconds float64 `json:"estimated_seconds"`
	Error            string  `json:"error,omitempty"`
}

func (j *Job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:               j.ID,
		Tenant:           j.Tenant,
		State:            j.state,
		Generation:       j.gen,
		Generations:      j.cfg.Generations,
		EstimatedSeconds: j.EstimatedSeconds,
		Error:            j.errMsg,
	}
}

func (j *Job) setGen(gen int) {
	j.mu.Lock()
	j.gen = gen
	j.mu.Unlock()
}

// sampleEvent is the SSE payload for a sampled generation. Mean fitness is
// omitted because the observer's population view carries strategies, not
// payoffs, at any rank count; cooperation derives from strategies alone.
type sampleEvent struct {
	Generation  int     `json:"generation"`
	Cooperation float64 `json:"cooperation"`
	Adopted     bool    `json:"adopted,omitempty"`
	Mutated     bool    `json:"mutated,omitempty"`
}

// Manager owns the job table, the bounded queue, and the worker pool — and,
// in durable mode, the write-ahead journal and checkpoint files that let a
// restarted daemon carry on where the previous process stopped.
type Manager struct {
	queue           chan *Job
	reg             *metrics.Registry
	quotas          *quotaTable
	workers         int
	maxJobSeconds   float64
	maxOutstanding  float64
	store           *store // nil in ephemeral (in-memory) mode
	epoch           int    // journal-persisted boot counter; 0 when ephemeral
	checkpointEvery int    // durable snapshot cadence for jobs without their own
	logf            func(format string, args ...any)
	// diskSink overrides the on-disk sink a durable job's behindSink writes
	// through (tests block or fail writes); nil means a sim.FileSink.
	diskSink func(path string) sim.CheckpointSink

	mu          sync.Mutex
	jobs        map[string]*Job
	nextID      int
	outstanding float64 // modelled seconds of non-terminal jobs
	// reserved counts queue slots held by submissions admitted but not yet
	// enqueued: len(queue)+reserved never exceeds cap(queue), so a
	// submission is refused for a full queue before it is journaled or
	// listed, and its enqueue cannot find the queue full.
	reserved int
	closed   bool

	wg sync.WaitGroup
}

func newManager(opts Options, reg *metrics.Registry) (*Manager, error) {
	m := &Manager{
		reg:             reg,
		quotas:          newQuotaTable(opts.Tenant, opts.Now),
		workers:         opts.workers(),
		maxJobSeconds:   opts.MaxJobSeconds,
		maxOutstanding:  opts.MaxOutstandingSeconds,
		checkpointEvery: opts.checkpointEvery(),
		logf:            opts.logf(),
		jobs:            make(map[string]*Job),
	}
	queueCap := opts.queueDepth()
	var pending []*Job
	if opts.DataDir != "" {
		st, js, err := openStore(opts.DataDir)
		if err != nil {
			return nil, err
		}
		m.store = st
		m.epoch = js.epoch + 1
		pending = m.recoverJobs(js)
		// Recovered jobs must all fit the queue regardless of the
		// configured depth: they were admitted by the previous process.
		if len(pending) > queueCap {
			queueCap = len(pending)
		}
	}
	m.queue = make(chan *Job, queueCap)
	for _, job := range pending {
		m.queue <- job
	}
	if m.store != nil {
		// Boot compaction: rewrite the journal as the recovered state under
		// the new epoch, dropping the previous process's transition history.
		// An interrupted job is journaled queued again, so a later boot
		// counts it interrupted only if it was running again when that
		// process stopped.
		if err := m.store.compact(m.snapshotRecords()); err != nil {
			m.store.close()
			return nil, err
		}
	}
	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Close stops the pool: no new submissions are accepted, running jobs are
// cancelled, and Close returns once every worker has drained.
func (m *Manager) Close() {
	if m.shut(func(job *Job) { job.ctrl.Store(ctrlCancel) }) {
		m.wg.Wait()
		m.closeStore()
	}
}

// Drain parks the service for restart: submissions stop, queued jobs stay
// queued, running jobs stop at the next generation boundary with a durable
// snapshot and return to queued — all journaled, so the next boot re-queues
// them, finds none journaled running, and finishes each trajectory
// bit-identically. If workers do not settle within timeout, Drain returns an
// error; the jobs still running stay journaled running, and the next boot
// resumes them as interrupted, from their latest checkpoints.
func (m *Manager) Drain(timeout time.Duration) error {
	// Only park jobs with no competing request: an in-flight pause or
	// cancel still wins, and its outcome is journaled as usual.
	if !m.shut(func(job *Job) { job.ctrl.CompareAndSwap(ctrlRun, ctrlDrain) }) {
		return nil
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		return fmt.Errorf("server: drain timed out after %s; the next boot resumes the jobs still running as interrupted", timeout)
	}
	// End every open event stream so the HTTP server can finish its own
	// shutdown; parked jobs' timelines stay readable for late replays.
	m.mu.Lock()
	for _, job := range m.jobsByID() {
		job.hub.close()
	}
	m.mu.Unlock()
	m.closeStore()
	return nil
}

// shut is the prologue Close and Drain share: it closes the pool to
// submissions and hands every job, in ID order, to stop. When the pool was
// already closed it only waits for the workers and reports false.
func (m *Manager) shut(stop func(*Job)) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return false
	}
	m.closed = true
	for _, job := range m.jobsByID() {
		stop(job)
	}
	close(m.queue)
	m.mu.Unlock()
	return true
}

// jobsByID returns every job in ID order (submission order: IDs are
// zero-padded sequence numbers). The caller holds m.mu.
func (m *Manager) jobsByID() []*Job {
	jobs := make([]*Job, 0, len(m.jobs))
	for _, job := range m.jobs {
		jobs = append(jobs, job)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs
}

// closeStore releases the journal after the pool has drained.
func (m *Manager) closeStore() {
	if m.store == nil {
		return
	}
	if err := m.store.close(); err != nil {
		m.logf("egdserve: closing journal: %v", err)
	}
}

func (m *Manager) get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	return job, ok
}

// list returns all job statuses in ID order.
func (m *Manager) list() []jobStatus {
	m.mu.Lock()
	jobs := m.jobsByID()
	m.mu.Unlock()
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// drainSeconds estimates how long the current backlog needs to clear: the
// outstanding modelled work divided across the pool, clamped to [1s, 600s]
// for a usable Retry-After.
func (m *Manager) drainSeconds() int {
	s := int(m.outstanding / float64(m.workers))
	if s < 1 {
		s = 1
	}
	if s > 600 {
		s = 600
	}
	return s
}

// Submit validates, prices, and admits a job, returning it in StateQueued.
// Errors are *specError (malformed), *admissionError (over budget),
// *quotaError (tenant limits), errShuttingDown, or the failed journal append
// of the submission; the HTTP layer maps each to its status.
func (m *Manager) Submit(tenant string, spec JobSpec) (*Job, error) {
	cfg, err := spec.Config()
	if err != nil {
		m.reject("invalid_spec")
		return nil, &specError{Detail: err.Error()}
	}
	est := CostModel{}.EstimateSeconds(cfg)
	if m.maxJobSeconds > 0 && est > m.maxJobSeconds {
		m.reject("job_over_budget")
		return nil, &admissionError{
			Status:          422,
			Reason:          "job_over_budget",
			Detail:          fmt.Sprintf("modelled cost %.3g s exceeds the per-job ceiling %.3g s; shrink the job or split it", est, m.maxJobSeconds),
			ModelledSeconds: est,
			BudgetSeconds:   m.maxJobSeconds,
		}
	}
	if err := m.quotas.admit(tenant); err != nil {
		var qe *quotaError
		if errors.As(err, &qe) {
			m.reject(qe.Reason)
		}
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.quotas.release(tenant)
		return nil, errShuttingDown
	}
	if m.maxOutstanding > 0 && m.outstanding+est > m.maxOutstanding {
		retry := m.drainSeconds()
		m.mu.Unlock()
		m.quotas.release(tenant)
		m.reject("capacity")
		return nil, &admissionError{
			Status:            429,
			Reason:            "capacity",
			Detail:            fmt.Sprintf("modelled cost %.3g s does not fit the outstanding-work budget %.3g s", est, m.maxOutstanding),
			ModelledSeconds:   est,
			BudgetSeconds:     m.maxOutstanding,
			RetryAfterSeconds: retry,
		}
	}
	if err := m.reserveLocked(est); err != nil {
		m.mu.Unlock()
		m.quotas.release(tenant)
		return nil, err
	}
	m.nextID++
	// IDs are epoch-counter pairs: the epoch is a journal-persisted boot
	// counter, so IDs stay unique and lexicographically submission-ordered
	// across daemon restarts (epoch 0 is the ephemeral, storeless mode).
	job := &Job{
		ID:               fmt.Sprintf("j-%04d-%06d", m.epoch, m.nextID),
		Tenant:           tenant,
		Spec:             spec,
		cfg:              cfg,
		EstimatedSeconds: est,
		hub:              newHub(),
		state:            StateQueued,
	}
	job.sink = m.newSink(job)
	m.outstanding += est
	if m.store == nil {
		m.jobs[job.ID] = job
	}
	m.mu.Unlock()

	// Journal the admission before listing or acknowledging it: once the
	// tenant sees 202, the job survives a crash. The job is listed under the
	// store lock once its record is appended, so a compaction journals it
	// only with that record on disk; a job whose record is not appended is
	// not admitted, and its reservation is given back. Replay reads a submit
	// record as a queued job, so no state record follows it.
	if m.store != nil {
		err := m.store.append(journalRecord{Kind: recSubmit, Job: job.ID, Tenant: job.Tenant, Spec: &spec, Est: est}, func(err error) {
			if err == nil {
				m.mu.Lock()
				m.jobs[job.ID] = job
				m.mu.Unlock()
			}
		})
		if err != nil {
			m.reg.Counter("egd_server_journal_errors_total").Inc()
			m.logf("egdserve: journal submit for job %s: %v", job.ID, err)
			m.quotas.release(tenant)
			m.mu.Lock()
			m.outstanding -= est
			m.reserved--
			m.mu.Unlock()
			return nil, err
		}
	}

	// The slot is reserved, so only a shutdown since admission refuses it.
	if err := m.enqueue(job); err != nil {
		m.settle(job, StateCanceled, nil, "")
		return nil, err
	}
	m.reg.Counter("egd_server_jobs_submitted_total").Inc()
	return job, nil
}

// newSink selects a job's checkpoint sink: durable on-disk snapshots
// written behind the engine when a store is configured, in-memory
// otherwise.
func (m *Manager) newSink(job *Job) sim.CheckpointSink {
	if m.store == nil {
		return sim.NewMemorySink()
	}
	path := m.store.checkpointPath(job.ID)
	if m.diskSink != nil {
		return newBehindSink(m.diskSink(path), m.reg)
	}
	return newBehindSink(&sim.FileSink{Path: path}, m.reg)
}

// reserveLocked claims a queue slot for a job about to be enqueued or, if
// the queue is full, returns a capacity rejection. The caller holds m.mu;
// enqueue spends the slot.
func (m *Manager) reserveLocked(est float64) error {
	if len(m.queue)+m.reserved >= cap(m.queue) {
		return m.queueFull(est)
	}
	m.reserved++
	return nil
}

// enqueue places a queued job on the worker queue, into the slot
// reserveLocked claimed for it. The send happens under the manager lock so
// it can never race the queue close in Close/Drain (which also hold the
// lock), and the reservation keeps it from blocking.
func (m *Manager) enqueue(job *Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reserved--
	if m.closed {
		return errShuttingDown
	}
	m.queue <- job
	m.reg.Gauge("egd_server_queue_depth").Set(int64(len(m.queue)))
	return nil
}

// queueFull counts and returns a full-queue refusal with a drain-time
// Retry-After. The caller holds m.mu.
func (m *Manager) queueFull(est float64) error {
	m.reject("queue_full")
	return &admissionError{
		Status:            429,
		Reason:            "queue_full",
		Detail:            fmt.Sprintf("job queue is full (%d entries)", cap(m.queue)),
		ModelledSeconds:   est,
		RetryAfterSeconds: m.drainSeconds(),
	}
}

func (m *Manager) reject(reason string) {
	m.reg.Counter(metrics.Name("egd_server_jobs_rejected_total", "reason", reason)).Inc()
}

// Pause asks a queued or running job to stop at the next generation
// boundary and persist its resume snapshot.
func (m *Manager) Pause(job *Job) error {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state != StateRunning && job.state != StateQueued {
		return &stateError{Detail: fmt.Sprintf("job %s is %s; only queued or running jobs pause", job.ID, job.state)}
	}
	job.ctrl.Store(ctrlPause)
	return nil
}

// Resume re-queues a paused job; its next segment starts from the pause
// snapshot.
func (m *Manager) Resume(job *Job) error {
	job.mu.Lock()
	if job.resuming {
		job.mu.Unlock()
		return &stateError{Detail: fmt.Sprintf("job %s is already resuming", job.ID)}
	}
	if job.state != StatePaused {
		job.mu.Unlock()
		return &stateError{Detail: fmt.Sprintf("job %s is %s; only paused jobs resume", job.ID, job.state)}
	}
	job.resuming = true
	gen := job.gen
	job.ctrl.Store(ctrlRun)
	job.mu.Unlock()
	m.commit(job, transition{state: StateQueued, gen: gen}, map[string]any{"id": job.ID, "state": StateQueued})
	job.mu.Lock()
	job.resuming = false
	job.mu.Unlock()
	m.mu.Lock()
	err := m.reserveLocked(job.EstimatedSeconds)
	m.mu.Unlock()
	if err == nil {
		err = m.enqueue(job)
	}
	if err != nil {
		// Back to paused, on the event stream too: it said queued.
		m.commit(job, transition{state: StatePaused, gen: gen}, map[string]any{"id": job.ID, "state": StatePaused, "generation": gen})
		return err
	}
	return nil
}

// Cancel terminates a job: running jobs stop at the next generation
// boundary; queued and paused jobs are cancelled immediately.
func (m *Manager) Cancel(job *Job) error {
	job.mu.Lock()
	state := job.state
	if job.resuming {
		state = StateQueued
	}
	job.mu.Unlock()
	switch state {
	case StateRunning, StateQueued:
		// A queued job's worker sees the flag at dequeue and settles it.
		job.ctrl.Store(ctrlCancel)
		return nil
	case StatePaused:
		m.settle(job, StateCanceled, nil, "")
		return nil
	default:
		return &stateError{Detail: fmt.Sprintf("job %s is already %s", job.ID, state)}
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.reg.Gauge("egd_server_queue_depth").Set(int64(len(m.queue)))
		m.runJob(job)
	}
}

// runJob executes one segment of a job: its spec configuration, resumed
// through sim.RestartConfig from the latest snapshot in the job's sink when
// there is one — the sink is the job's only resume point, in memory and
// across restarts alike. It ends in done/failed/canceled, or parked
// (paused, or queued by a drain) with a fresh resume snapshot.
func (m *Manager) runJob(job *Job) {
	switch job.ctrl.Load() {
	case ctrlCancel:
		m.settle(job, StateCanceled, nil, "")
		return
	case ctrlDrain:
		// Draining: the job stays queued (already journaled as such); the
		// next boot's recovery re-queues it.
		return
	}
	job.mu.Lock()
	gen := job.gen
	job.mu.Unlock()
	m.commit(job, transition{state: StateRunning, gen: gen}, map[string]any{"id": job.ID, "state": StateRunning})

	cfg := job.cfg
	cfg.CheckpointSink = job.sink
	if m.store != nil && cfg.CheckpointEvery == 0 {
		// Durable mode: every job checkpoints on the server cadence even
		// when its spec asked for none — otherwise a crash would replay the
		// whole trajectory from generation 0.
		cfg.CheckpointEvery = m.checkpointEvery
	}
	// The one resume rule: a foreign or out-of-window checkpoint would fork
	// the job's trajectory, and the job fails instead.
	cfg, err := sim.RestartConfig(cfg)
	if err != nil {
		m.settle(job, StateFailed, nil, "resume checkpoint rejected: "+err.Error())
		return
	}
	cfg.Control = func(gen int) error {
		job.setGen(gen)
		switch job.ctrl.Load() {
		case ctrlPause:
			return errPauseRequested
		case ctrlCancel:
			return errCancelRequested
		case ctrlDrain:
			return errDrainRequested
		}
		return nil
	}
	stride := cfg.SampleStride
	cfg.Observer = func(gen int, pop *sim.Population, ev sim.Events) {
		job.setGen(gen + 1)
		if gen%stride == 0 {
			job.hub.publish("sample", sampleEvent{
				Generation:  gen,
				Cooperation: pop.MeanCooperationProb(),
				Adopted:     ev.Adopted,
				Mutated:     ev.MutationOccurred,
			})
		}
	}

	// The gauge spans the engine call alone and falls before the segment's
	// outcome is published (settle, park), so a client that sees the job
	// stopped never scrapes it running.
	running := m.reg.Gauge("egd_server_jobs_running")
	running.Add(1)
	res, err := sim.Run(cfg, job.Spec.Ranks)
	running.Add(-1)
	ctrl := job.ctrl.Load()
	switch {
	case err == nil:
		m.settle(job, StateDone, res, "")
	case errors.Is(err, sim.ErrStopped) && ctrl == ctrlPause:
		m.park(job, StatePaused)
	case errors.Is(err, sim.ErrStopped) && ctrl == ctrlDrain:
		// Shutdown drain: back to queued, so the next boot's recovery
		// resumes the job from exactly this boundary.
		m.park(job, StateQueued)
	case errors.Is(err, sim.ErrStopped):
		m.settle(job, StateCanceled, nil, "")
	default:
		m.settle(job, StateFailed, nil, err.Error())
	}
}

// park ends a stopped segment in a non-terminal state — paused, or queued
// for a drain. The engine handed over the stop snapshot before returning;
// Latest puts it on disk before the state is journaled. It is the whole run
// so far, and the next segment resumes from it.
func (m *Manager) park(job *Job, state State) {
	snap, err := job.sink.Latest()
	if err != nil || snap == nil {
		m.settle(job, StateFailed, nil, fmt.Sprintf("stop snapshot unavailable: %v", err))
		return
	}
	m.commit(job, transition{state: state, gen: int(snap.Generation)},
		map[string]any{"id": job.ID, "state": state, "generation": snap.Generation})
	// The request is served; a drained job never runs again in this process.
	job.ctrl.Store(ctrlRun)
}

// settle moves a job to a terminal state exactly once: folds its metrics
// into the daemon registry, records the outcome, releases its budget
// reservation and tenant slot, closes its event stream and deletes its
// checkpoint. The registry is updated before the terminal state can be
// observed: a client that polls the job done and then scrapes /metrics
// finds the job counted.
func (m *Manager) settle(job *Job, state State, res *sim.Result, errMsg string) {
	var runReg *metrics.Registry
	if res != nil {
		runReg = res.MetricsRegistry()
	}
	job.mu.Lock()
	if job.settling || job.state.terminal() {
		job.mu.Unlock()
		return
	}
	job.settling = true
	tr := transition{state: state, gen: job.gen, errMsg: errMsg}
	if res != nil {
		tr.gen = job.cfg.StartGeneration + job.cfg.Generations
		if state == StateDone {
			var err error
			if tr.result, err = json.Marshal(wireResult(job.ID, res)); err != nil {
				tr.state, tr.errMsg = StateFailed, "encoding result: "+err.Error()
			}
		}
	}
	m.reg.Counter(metrics.Name("egd_server_jobs_finished_total", "state", string(tr.state))).Inc()
	if runReg != nil {
		foldCounters(m.reg, runReg)
	}
	job.mu.Unlock()

	m.quotas.release(job.Tenant)
	m.commit(job, tr, map[string]any{"id": job.ID, "state": tr.state, "error": tr.errMsg})
	job.hub.close()
	m.mu.Lock()
	m.outstanding -= job.EstimatedSeconds
	if m.outstanding < 0 {
		m.outstanding = 0
	}
	m.mu.Unlock()
	if m.store != nil {
		job.sink.(*behindSink).discard()
		m.store.removeCheckpoint(job.ID)
	}
}

// transition is a job's next lifecycle position: what the journal records
// and what commit installs once it has.
type transition struct {
	state  State
	gen    int
	errMsg string
	result json.RawMessage
}

// commit journals a transition before anyone can see it. Once the record
// is appended — under the store lock, so a compaction sees both or neither
// — the transition is installed on the job and ev, when non-nil, published
// as its state event. The record carries the ID that event gets, so the
// journaled event-id mark is the one the client saw, and a client never
// sees a state a crash could undo. Without a store both happen at once.
func (m *Manager) commit(job *Job, tr transition, ev map[string]any) {
	show := func() {
		job.mu.Lock()
		job.state, job.gen, job.errMsg, job.result = tr.state, tr.gen, tr.errMsg, tr.result
		job.mu.Unlock()
		if ev != nil {
			job.hub.publish("state", ev)
		}
	}
	if m.store == nil {
		show()
		return
	}
	rec := journalRecord{Kind: recState, Job: job.ID, State: tr.state, Gen: tr.gen, Error: tr.errMsg, EventID: job.hub.highWater(), Result: tr.result}
	if ev != nil {
		rec.EventID++
	}
	if err := m.store.append(rec, func(error) { show() }); err != nil {
		m.reg.Counter("egd_server_journal_errors_total").Inc()
		m.logf("egdserve: journal append for job %s: %v", job.ID, err)
	}
	if err := m.store.maybeCompact(m.snapshotRecords); err != nil {
		m.reg.Counter("egd_server_journal_errors_total").Inc()
		m.logf("egdserve: journal compaction: %v", err)
	}
}

// foldCounters accumulates a finished run's counters into the daemon
// registry (snapshots are name-sorted, so the fold order is deterministic).
func foldCounters(dst, src *metrics.Registry) {
	snap := src.Snapshot()
	for _, c := range snap.Counters {
		dst.Counter(c.Name).Add(c.Value)
	}
}

// specError is a malformed-submission rejection (HTTP 400).
type specError struct {
	Detail string `json:"detail"`
}

func (e *specError) Error() string { return "server: invalid job spec: " + e.Detail }

// errShuttingDown rejects a submission or resume that arrives once Close or
// Drain has begun (HTTP 503): the request is valid, this process just takes
// no more work, so the client retries against the restarted daemon.
var errShuttingDown = errors.New("server: shutting down")

// stateError is an invalid lifecycle transition (HTTP 409).
type stateError struct {
	Detail string `json:"detail"`
}

func (e *stateError) Error() string { return "server: invalid state transition: " + e.Detail }
