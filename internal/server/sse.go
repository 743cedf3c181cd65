package server

import (
	"encoding/json"
	"sync"
)

// sseEvent is one entry on a job's event timeline. IDs are 1-based and
// dense, so a reconnecting client's Last-Event-ID maps directly to an index
// into the retained timeline for replay.
type sseEvent struct {
	ID   int
	Kind string
	Data []byte // one JSON object, no newlines
}

// hub is a per-job event timeline: publishers append to it, and a
// subscriber is nothing but a cursor into it — it reads the events after
// the last ID it wrote and waits for the next publish. There is no
// per-subscriber buffer, so a reader can fall arbitrarily far behind
// without losing an event and without a publisher ever waiting for it.
//
// base offsets the ID sequence: a hub rebuilt after a daemon restart starts
// at the journal-persisted high-water mark, so IDs stay monotonic across
// restarts even though the pre-restart timeline itself is not retained (a
// reconnecting client with a pre-restart Last-Event-ID replays the whole
// post-restart timeline instead).
type hub struct {
	mu     sync.Mutex
	base   int
	events []sseEvent
	// wake is closed by the next publish or close; nil while nobody waits.
	wake   chan struct{}
	closed bool
}

func newHub() *hub { return &hub{} }

// newHubAt creates a hub whose first event gets ID base+1.
func newHubAt(base int) *hub {
	if base < 0 {
		base = 0
	}
	return &hub{base: base}
}

// highWater returns the highest event ID issued so far (base when none).
func (h *hub) highWater() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.base + len(h.events)
}

// publish appends one event and wakes the waiting subscribers. v is
// serialised to JSON; serialisation failures are impossible for the value
// types the server publishes (plain structs of numbers and strings), so
// publish is infallible by design.
func (h *hub) publish(kind string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"unencodable event"}`)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.events = append(h.events, sseEvent{ID: h.base + len(h.events) + 1, Kind: kind, Data: data})
	h.wakeLocked()
}

func (h *hub) wakeLocked() {
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
}

// after returns every retained event with ID > afterID (a read-only view
// of the timeline), whether the stream has ended — in which case the view
// is complete — and a channel that is closed by the next publish or close.
func (h *hub) after(afterID int) (events []sseEvent, wake <-chan struct{}, closed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := min(max(afterID-h.base, 0), len(h.events))
	if h.wake == nil && !h.closed {
		h.wake = make(chan struct{})
	}
	return h.events[idx:len(h.events):len(h.events)], h.wake, h.closed
}

// close ends the stream: waiting subscribers wake to read what is left,
// and later publishes are ignored. The timeline stays readable for
// Last-Event-ID replays of finished jobs.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.wakeLocked()
}
