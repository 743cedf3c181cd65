package server

// recoverJobs rebuilds the manager's job table, tenant quotas, and
// outstanding-work budget from a replayed journal, returning the jobs that
// must be re-queued (journaled queued, plus journaled running — a job the
// previous process died under resumes from its latest durable checkpoint,
// or from generation 0 when it never reached one; either way the finished
// trajectory is bit-identical). Must run before the worker pool starts.
func (m *Manager) recoverJobs(js *journalState) []*Job {
	var pending []*Job
	requeued, paused, terminal, failed, interrupted := 0, 0, 0, 0, 0
	for _, id := range js.order {
		rj := js.jobs[id]
		if rj.state == StateRunning {
			interrupted++ // the previous process died, or its drain timed out, under this job
		}
		job := m.rebuildJob(rj)
		m.jobs[id] = job
		switch {
		case job.state.terminal():
			m.store.removeCheckpoint(id)
			terminal++
			if job.state == StateFailed && !rj.state.terminal() {
				failed++ // recovery itself failed this one (stale spec)
			}
		case job.state == StatePaused:
			m.quotas.restore(job.Tenant)
			m.outstanding += job.EstimatedSeconds
			paused++
		default:
			m.quotas.restore(job.Tenant)
			m.outstanding += job.EstimatedSeconds
			pending = append(pending, job)
			requeued++
		}
	}
	m.logf("egdserve: recovered %d jobs from journal (%d re-queued, %d paused, %d terminal, %d unrecoverable), %d interrupted while running; epoch %d, %d bytes of journal tail skipped",
		len(js.order), requeued, paused, terminal, failed, interrupted, m.epoch, js.skippedTail)
	return pending
}

// rebuildJob materialises one journal-replayed job. A non-terminal job whose
// spec no longer validates comes back failed with the reason recorded rather
// than poisoning the boot.
func (m *Manager) rebuildJob(rj *recoveredJob) *Job {
	job := &Job{
		ID:               rj.id,
		Tenant:           rj.tenant,
		Spec:             rj.spec,
		EstimatedSeconds: rj.est,
		hub:              newHubAt(rj.eventID),
		gen:              rj.gen,
	}
	job.sink = m.newSink(job)
	if rj.state.terminal() {
		job.state = rj.state
		job.errMsg = rj.errMsg
		job.result = rj.result
		job.hub.close()
		return job
	}
	cfg, err := rj.spec.Config()
	if err != nil {
		job.state = StateFailed
		job.errMsg = "journaled spec no longer validates: " + err.Error()
		job.hub.close()
		return job
	}
	job.cfg = cfg
	// A paused job stays paused; a queued or running one is queued. Its next
	// segment resumes from the checkpoint, or from generation 0 when there is
	// none or it cannot be read: both reach the uninterrupted result.
	job.state = StateQueued
	if rj.state == StatePaused {
		job.state = StatePaused
	}
	if snap, err := job.sink.Latest(); err == nil && snap != nil {
		job.gen = int(snap.Generation)
	}
	return job
}

// snapshotRecords serialises the live job table as a compacted journal: the
// epoch marker, then each job's submit and latest state in ID order. Called
// by the store under its own lock, so it must not call back into it.
func (m *Manager) snapshotRecords() []journalRecord {
	m.mu.Lock()
	jobs := m.jobsByID()
	m.mu.Unlock()

	recs := make([]journalRecord, 0, 1+2*len(jobs))
	recs = append(recs, journalRecord{Kind: recMeta, Epoch: m.epoch})
	for _, job := range jobs {
		job.mu.Lock()
		spec := job.Spec
		recs = append(recs,
			journalRecord{Kind: recSubmit, Job: job.ID, Tenant: job.Tenant, Spec: &spec, Est: job.EstimatedSeconds},
			journalRecord{Kind: recState, Job: job.ID, State: job.state, Gen: job.gen, Error: job.errMsg, EventID: job.hub.highWater(), Result: job.result})
		job.mu.Unlock()
	}
	return recs
}
