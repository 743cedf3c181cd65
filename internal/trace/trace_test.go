package trace

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

func rec(gen int) Record {
	return Record{Generation: gen, Cooperation: float64(gen) * 0.1, Distinct: gen % 7, PC: gen%2 == 0, Adopted: gen%4 == 0, Mutated: gen%3 == 0}
}

func TestRecorderUnbounded(t *testing.T) {
	r := NewRecorder(0)
	for g := 0; g < 100; g++ {
		r.Add(rec(g))
	}
	if r.Len() != 100 {
		t.Fatalf("len %d", r.Len())
	}
	if r.stride != 1 {
		t.Fatal("unbounded recorder thinned")
	}
}

func TestRecorderThinning(t *testing.T) {
	r := NewRecorder(64)
	for g := 0; g < 10000; g++ {
		r.Add(rec(g))
	}
	if r.Len() > 64 {
		t.Fatalf("kept %d records over cap 64", r.Len())
	}
	if r.stride < 2 {
		t.Fatal("no thinning occurred")
	}
	// Kept generations must respect the stride and stay ordered.
	last := -1
	for _, kept := range r.records {
		if kept.Generation%r.stride != 0 {
			t.Fatalf("generation %d kept at stride %d", kept.Generation, r.stride)
		}
		if kept.Generation <= last {
			t.Fatal("records out of order")
		}
		last = kept.Generation
	}
	// Early and late trajectory both survive thinning.
	if r.records[0].Generation > 1000 {
		t.Fatalf("early trajectory lost: first kept gen %d", r.records[0].Generation)
	}
	if last < 8000 {
		t.Fatalf("late trajectory lost: last kept gen %d", last)
	}
}

// The CSV is read back by an independent reader: a header, then one
// six-field row per record that parses to the record's values.
func TestCSVRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	for g := 0; g < 25; g++ {
		r.Add(rec(g))
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 26 || rows[0][0] != "generation" || len(rows[0]) != 6 {
		t.Fatalf("%d rows, header %v", len(rows), rows[0])
	}
	for i, row := range rows[1:] {
		var got Record
		got.Generation, _ = strconv.Atoi(row[0])
		got.Cooperation, _ = strconv.ParseFloat(row[1], 64)
		got.Distinct, _ = strconv.Atoi(row[2])
		got.PC, _ = strconv.ParseBool(row[3])
		got.Adopted, _ = strconv.ParseBool(row[4])
		got.Mutated, _ = strconv.ParseBool(row[5])
		if got != rec(i) {
			t.Fatalf("row %d = %v, want %+v", i, row, rec(i))
		}
	}
}
