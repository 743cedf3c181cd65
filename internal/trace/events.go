package trace

import "sync"

// EventKind classifies a fault-tolerance event.
type EventKind string

// Fault-tolerance event kinds.
const (
	// EventFault: a rank failure was detected (injected or organic).
	EventFault EventKind = "fault"
	// EventCheckpoint: the Nature Agent persisted a snapshot.
	EventCheckpoint EventKind = "checkpoint"
	// EventRecovery: the supervisor restarted the run from a snapshot.
	EventRecovery EventKind = "recovery"
	// EventGiveUp: the restart budget was exhausted.
	EventGiveUp EventKind = "give_up"
	// EventMetrics: the engine aggregated the run's observability metrics
	// (Config.Metrics); Detail carries a deterministic one-line summary.
	EventMetrics EventKind = "metrics"
)

// Event is one fault-tolerance occurrence on a run's timeline.
type Event struct {
	Kind EventKind `json:"kind"`
	// Generation is the absolute generation the event refers to: the
	// snapshot generation for checkpoints, the resume generation for
	// recoveries. -1 when unknown (e.g. a failure before any checkpoint).
	Generation int `json:"generation"`
	// Rank is the rank involved: the failed rank for faults, the writing
	// rank for checkpoints. -1 when not rank-specific.
	Rank int `json:"rank"`
	// Attempt is the supervisor's restart attempt number (0 for the first
	// run); meaningful for recovery and give-up events.
	Attempt int `json:"attempt"`
	// Detail is a human-readable elaboration (e.g. the failure error).
	Detail string `json:"detail,omitempty"`
}

// EventLog is a concurrency-safe append-only fault-tolerance event log. The
// Nature Agent appends checkpoint events from inside the world while the
// supervisor appends recovery events between worlds, so appends are
// mutex-guarded.
type EventLog struct {
	mu     sync.Mutex
	events []Event
}

// NewEventLog creates an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append adds an event.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of the log in append order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Count returns how many events of the given kind were logged.
func (l *EventLog) Count(kind EventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
