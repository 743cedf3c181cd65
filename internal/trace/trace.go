// Package trace records per-generation simulation events and exports them
// as CSV — the observability layer sitting where the paper's Nature
// Agent "handles all file I/O to record the global variables across
// generations".
package trace

import (
	"io"
	"strconv"
	"strings"
)

// Record is one generation's logged state.
type Record struct {
	Generation  int     `json:"generation"`
	Cooperation float64 `json:"cooperation"`
	Distinct    int     `json:"distinct_strategies"`
	PC          bool    `json:"pc_event"`
	Adopted     bool    `json:"adopted"`
	Mutated     bool    `json:"mutated"`
}

// Recorder accumulates records with an optional cap; when full, the oldest
// half is compacted away by doubling the keep-stride (reservoir-style
// thinning that preserves trajectory shape for arbitrarily long runs).
type Recorder struct {
	records []Record
	cap     int
	stride  int
}

// NewRecorder creates a recorder keeping at most capacity records
// (capacity <= 0 means unbounded).
func NewRecorder(capacity int) *Recorder {
	return &Recorder{cap: capacity, stride: 1}
}

// Add appends a record, thinning when over capacity.
func (r *Recorder) Add(rec Record) {
	if r.stride > 1 && rec.Generation%r.stride != 0 {
		return
	}
	r.records = append(r.records, rec)
	if r.cap > 0 && len(r.records) > r.cap {
		r.stride *= 2
		kept := r.records[:0]
		for _, old := range r.records {
			if old.Generation%r.stride == 0 {
				kept = append(kept, old)
			}
		}
		r.records = kept
	}
}

// Len returns the number of kept records.
func (r *Recorder) Len() int { return len(r.records) }

// WriteCSV writes the kept records as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("generation,cooperation,distinct_strategies,pc_event,adopted,mutated\n")
	for _, rec := range r.records {
		sb.WriteString(strconv.Itoa(rec.Generation))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatFloat(rec.Cooperation, 'g', -1, 64))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(rec.Distinct))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatBool(rec.PC))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatBool(rec.Adopted))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatBool(rec.Mutated))
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
