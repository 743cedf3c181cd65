package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
)

// The durable job store is an append-only JSONL write-ahead journal plus one
// checkpoint file per job. Every lifecycle transition is journaled with an
// fsync'd append before the daemon acknowledges it, so a kill -9 at any
// point loses at most the events since the last completed append — and
// recovery replays the journal to rebuild the job table, tenant quotas, and
// outstanding-work budget exactly. The journal is compacted (rewritten from
// the live job table through checkpoint.ReplaceFile, the path the
// checkpoint sink uses) every compactEvery appends, so it stays proportional
// to the job table rather than to the daemon's lifetime.

const (
	journalName    = "journal.jsonl"
	checkpointsDir = "checkpoints"
	// compactEvery bounds journal growth: after this many appends the
	// journal is rewritten from live state.
	compactEvery = 256
	// maxJournalLine bounds a single record (results carry final-population
	// arrays and sampled series; 32 MiB is far above any real job).
	maxJournalLine = 32 << 20
)

// Journal record kinds. Replay ignores any other kind, such as the "clean"
// shutdown marker earlier daemons appended.
const (
	recMeta   = "meta"   // epoch high-water: written once per process boot
	recSubmit = "submit" // a job's immutable identity: spec, tenant, price
	recState  = "state"  // a lifecycle transition; terminal done carries the result
)

// journalRecord is one JSONL line of the write-ahead journal. Exactly one
// kind-specific field group is populated per record.
type journalRecord struct {
	Kind string `json:"kind"`
	// meta
	Epoch int `json:"epoch,omitempty"`
	// submit / state
	Job    string   `json:"job,omitempty"`
	Tenant string   `json:"tenant,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"`
	Est    float64  `json:"estimated_seconds,omitempty"`
	// state
	State   State  `json:"state,omitempty"`
	Gen     int    `json:"generation,omitempty"`
	Error   string `json:"error,omitempty"`
	EventID int    `json:"event_id,omitempty"`
	// Result is a done job's /result document, encoded once at settle and
	// carried as bytes through every append and compaction.
	Result json.RawMessage `json:"result,omitempty"`
}

// recoveredJob is one job's journal-replayed state: the submit record's
// identity merged with its last state record.
type recoveredJob struct {
	id      string
	tenant  string
	spec    JobSpec
	est     float64
	state   State
	gen     int
	errMsg  string
	eventID int
	result  json.RawMessage
}

// journalState is the outcome of replaying a journal: the per-job table in
// submission order, the epoch high-water mark, and how much undecodable
// tail was skipped.
type journalState struct {
	epoch       int
	skippedTail int // bytes of truncated/garbage tail tolerated, 0 on a healthy journal
	jobs        map[string]*recoveredJob
	order       []string
}

// store owns the journal file handle and the checkpoint directory. All
// appends and compactions serialise on mu; append call sites must not hold
// the manager or job locks (compaction acquires them under mu to snapshot
// live state, and an append's then installs a job's transition under it, so
// the lock order is store.mu → Manager.mu → Job.mu → hub.mu).
type store struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	appends int
}

// openStore opens (creating if needed) the data directory, replays the
// existing journal, and returns the store positioned to append. A missing
// journal is a fresh store; a journal with a truncated or garbage tail is
// replayed up to the damage and the tail size reported, never fatal. The
// temporary files of a compaction or checkpoint save that a kill -9
// interrupted are removed first: nothing else ever would.
func openStore(dir string) (*store, *journalState, error) {
	ckptDir := filepath.Join(dir, checkpointsDir)
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	for _, d := range []string{dir, ckptDir} {
		if err := checkpoint.RemoveTemps(d); err != nil {
			return nil, nil, fmt.Errorf("server: opening data dir: %w", err)
		}
	}
	path := filepath.Join(dir, journalName)
	js := emptyJournalState()
	if data, err := os.ReadFile(path); err == nil {
		js = replayJournal(data)
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: reading journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening journal: %w", err)
	}
	if err := checkpoint.SyncDir(dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &store{dir: dir, f: f}, js, nil
}

func emptyJournalState() *journalState {
	return &journalState{jobs: make(map[string]*recoveredJob)}
}

// replayJournal rebuilds the job table from journal bytes. Decoding stops at
// the first undecodable line: with fsync'd appends any damage is a torn
// final write, so everything after it is treated as garbage tail and
// skipped rather than failing recovery.
func replayJournal(data []byte) *journalState {
	js := emptyJournalState()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), maxJournalLine)
	consumed := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			consumed += len(line) + 1
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Kind == "" {
			break // torn tail: everything from here is skipped
		}
		consumed += len(line) + 1
		js.apply(&rec)
	}
	if consumed > len(data) {
		consumed = len(data) // final line had no trailing newline
	}
	js.skippedTail = len(data) - consumed
	return js
}

// apply folds one record into the replay state; records for unknown kinds
// or unknown job IDs are ignored (forward compatibility and tail damage).
func (js *journalState) apply(rec *journalRecord) {
	switch rec.Kind {
	case recMeta:
		if rec.Epoch > js.epoch {
			js.epoch = rec.Epoch
		}
	case recSubmit:
		if rec.Job == "" || rec.Spec == nil {
			return
		}
		if _, ok := js.jobs[rec.Job]; !ok {
			js.order = append(js.order, rec.Job)
		}
		js.jobs[rec.Job] = &recoveredJob{
			id:     rec.Job,
			tenant: rec.Tenant,
			spec:   *rec.Spec,
			est:    rec.Est,
			state:  StateQueued,
		}
	case recState:
		rj, ok := js.jobs[rec.Job]
		if !ok {
			return
		}
		rj.state = rec.State
		rj.gen = rec.Gen
		rj.errMsg = rec.Error
		if rec.EventID > rj.eventID {
			rj.eventID = rec.EventID
		}
		if len(rec.Result) > 0 && !bytes.Equal(rec.Result, []byte("null")) {
			rj.result = rec.Result
		}
	}
}

// append durably writes one record: marshal, write the line, fsync. The
// record is on disk when append returns nil. then, when non-nil, runs under
// the store lock once the append has succeeded or failed, with its error,
// so a compaction never snapshots what then installs without the record
// that journals it; then must not call back into the store.
func (st *store) append(rec journalRecord, then func(error)) (err error) {
	line, err := json.Marshal(rec)
	st.mu.Lock()
	defer st.mu.Unlock()
	if then != nil {
		defer func() { then(err) }()
	}
	if err != nil {
		return fmt.Errorf("server: encoding journal record: %w", err)
	}
	if st.f == nil {
		return fmt.Errorf("server: journal closed")
	}
	if _, err := st.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("server: journal append: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("server: journal fsync: %w", err)
	}
	st.appends++
	return nil
}

// maybeCompact rewrites the journal from collect()'s records once enough
// appends have accumulated. collect runs under the store lock, so no append
// can interleave between the state snapshot and the rewrite (it must not
// call store methods).
func (st *store) maybeCompact(collect func() []journalRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil || st.appends < compactEvery {
		return nil
	}
	return st.compactLocked(collect())
}

// compact unconditionally rewrites the journal from recs (boot-time reset
// to the recovered state under the new epoch).
func (st *store) compact(recs []journalRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return fmt.Errorf("server: journal closed")
	}
	return st.compactLocked(recs)
}

// compactLocked replaces the journal with recs through
// checkpoint.ReplaceFile — a crash mid-compaction leaves either the old
// journal or the new one, never a mix — and swaps the append handle.
func (st *store) compactLocked(recs []journalRecord) error {
	path := filepath.Join(st.dir, journalName)
	err := checkpoint.ReplaceFile(path, func(out io.Writer) error {
		w := bufio.NewWriter(out)
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("encoding journal record: %w", err)
			}
			w.Write(line)     //nolint:errcheck // surfaced by Flush below
			w.WriteByte('\n') //nolint:errcheck // surfaced by Flush below
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("server: journal compact: %w", err)
	}
	old := st.f
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: reopening compacted journal: %w", err)
	}
	old.Close()
	st.f = f
	st.appends = 0
	return nil
}

// checkpointPath is where a job's durable resume snapshot lives.
func (st *store) checkpointPath(jobID string) string {
	return filepath.Join(st.dir, checkpointsDir, jobID+".ckpt")
}

// removeCheckpoint deletes a settled job's snapshot file (best effort).
func (st *store) removeCheckpoint(jobID string) {
	os.Remove(st.checkpointPath(jobID)) //nolint:errcheck // absent file is the goal
}

// close releases the journal handle. Appends after close fail.
func (st *store) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}
