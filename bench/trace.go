package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Parent is the index of the span that caused it (-1 for a root);
// spans of one service job share ID.
type span struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Parent   int           `json:"parent"`
	Workload string        `json:"workload"`
	Rep      int           `json:"rep"`
	ID       string        `json:"id,omitempty"`
	Lane     int           `json:"lane"`
}

// recorder keeps spans in memory until the run ends. A nil recorder (the
// untraced pass) records nothing, so the measured path carries no tracing
// cost at all.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its index, -1 on a nil recorder.
func (r *recorder) begin(name string, parent, rep, lane int, id string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: time.Since(r.t0), End: -1,
		Parent: parent, Workload: r.workload, Rep: rep, ID: id, Lane: lane,
	})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = time.Since(r.t0)
	r.mu.Unlock()
}

// setID tags a span with the identifier its job was given after it began.
func (r *recorder) setID(i int, id string) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].ID = id
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover. Overlapping children (concurrent ranks under
// one rep) are merged first so covered time is never counted twice.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids[s.Parent] = append(kids[s.Parent], iv{a, b})
			}
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, edge time.Duration
		edge = s.Start
		for _, k := range ivs {
			if k.b <= edge {
				continue
			}
			covered += k.b - max(k.a, edge)
			edge = k.b
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// chrome://tracing and Perfetto both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvents converts spans to trace events; pid separates workloads when
// several runs are merged into one file.
func chromeEvents(spans []span, pid int) []chromeEvent {
	self := selfTimes(spans)
	evs := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{"rep": s.Rep, "parent": s.Parent, "self_us": float64(self[i]) / 1e3}
		if s.ID != "" {
			args["id"] = s.ID
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: pid, Tid: s.Lane, Args: args,
		})
	}
	return evs
}

func writeChromeTrace(path string, evs []chromeEvent) error {
	data, err := json.Marshal(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
