package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/strategy"
)

// decodeVerdict decodes a verdict with a fresh decoder, whose Cells the
// caller keeps.
func decodeVerdict(payload any, gen, cells int) (verdict, error) {
	var d verdictDecoder
	return d.decode(payload, gen, cells)
}

func TestVerdictRoundTrip(t *testing.T) {
	verdicts := []verdict{
		{},
		{Gen: 1 << 20, Stop: true},
		{Gen: math.MaxInt32}, // the highest an int holds on every GOARCH
		{Gen: 7, Cells: []float64{1, 2.5, 0, math.Inf(1)}},
	}
	if past := uint64(1)<<32 + 3; uint64(math.MaxInt) >= past { // the high word, where int has one
		verdicts = append(verdicts, verdict{Gen: int(past), Cells: []float64{2}}, verdict{Gen: math.MaxInt, Stop: true})
	}
	for _, v := range verdicts {
		b := v.encode()
		if len(b) != 14+8*len(v.Cells) {
			t.Fatalf("%+v encodes to %d bytes, want %d", v, len(b), 14+8*len(v.Cells))
		}
		got, err := decodeVerdict(b, v.Gen, len(v.Cells))
		if err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("%+v round trip: %+v, %v", v, got, err)
		}
	}
}

// timedReport is a report carrying every block: counters, the phase table
// (a phase never booked among them) and the payoff table's counters.
func timedReport() rankReport {
	pt := phaseTimer{phaseBroadcast: {3, 1234}, phaseGamePlay: {3, math.MaxInt64}, phaseNatureStep: {60, 7}}
	return rankReport{
		Counters: Counters{GamesPlayed: math.MaxUint64, PCEvents: 5, Adoptions: 2, Mutations: 1},
		Live:     4, Phases: &pt, Cache: &game.CacheStats{Hits: 9, Misses: 3, Entries: 4},
	}
}

// A report is its fixed layout: 42 bytes of kind, flags, counters and live
// count, 64 more with the phase table, 24 more with the payoff table's
// counters — whatever the values — and it decodes back to itself.
func TestReportRoundTrip(t *testing.T) {
	full := timedReport()
	untimed := full
	untimed.Phases = nil
	for _, tc := range []struct {
		rep  rankReport
		size int
	}{
		{rankReport{}, 42},
		{rankReport{Live: 1, Counters: Counters{GamesPlayed: 12}}, 42},
		{rankReport{Phases: new(phaseTimer)}, 106},
		{untimed, 66},
		{full, 130},
	} {
		b := tc.rep.encode()
		if len(b) != tc.size || b[0] != msgReport {
			t.Fatalf("%+v encodes to %d bytes of kind %d, want %d of kind %d", tc.rep, len(b), b[0], tc.size, msgReport)
		}
		got, err := decodeReport(1, b)
		if err != nil || !reflect.DeepEqual(got, tc.rep) {
			t.Fatalf("%+v round trip: %+v, %v", tc.rep, got, err)
		}
	}
	// The phase block a report carries reads as the rank's snapshot: name
	// order, the phase never booked omitted.
	want := []PhaseStat{{PhaseBroadcast, 3, 1234}, {PhaseGamePlay, 3, math.MaxInt64}, {PhaseNatureStep, 60, 7}}
	if got := full.Phases.stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases %+v, want %+v", got, want)
	}
}

// Every way a received message can be wrong is an error naming what is
// wrong — never a type assertion or a verdict applied to the wrong
// generation.
func TestEngineMessageRejections(t *testing.T) {
	// A pure strategy's record as a checkpoint stores it: kind, length, bits.
	bits, _ := strategy.AllD(strategy.NewSpace(2)).Bits().MarshalBinary()
	pure := append(binary.LittleEndian.AppendUint32([]byte{1}, uint32(len(bits))), bits...)
	ver := verdict{Gen: 5}.encode()
	cel := verdict{Gen: 5, Cells: []float64{1, 3}}.encode()

	with := func(b []byte, mut func(b []byte) []byte) []byte { return mut(append([]byte(nil), b...)) }
	setField := func(i int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[2+4*i:], v); return b }
	}
	// The receiver stands at generation 5, at a meeting that misses no cell
	// or, for "cells", two.
	decoders := map[string]func(any) error{
		"verdict": func(p any) error { _, err := decodeVerdict(p, 5, 0); return err },
		"cells":   func(p any) error { _, err := decodeVerdict(p, 5, 2); return err },
		"report":  func(p any) error { _, err := decodeReport(2, p); return err }, // from rank 2
	}
	rep := timedReport().encode()
	untimed := rankReport{Live: 3}.encode()
	flags := func(f byte) func([]byte) []byte { return func(b []byte) []byte { b[1] = f; return b } }
	cut := func(b []byte, n int) []byte { return append(append([]byte(nil), b[:n]...), b[n+64:]...) } // drops 64 bytes at n
	for _, tc := range []struct {
		name    string
		decoder string
		payload any
		want    string // a fragment of the error
	}{
		{"not bytes", "verdict", []float64{1}, "expected a verdict message, received []float64"},
		{"nil", "verdict", nil, "expected a verdict message"},
		{"empty", "verdict", []byte{}, "expected a verdict message"},
		{"short head", "verdict", ver[:13], "expected a verdict message"},
		{"another kind of message", "verdict", with(ver, func(b []byte) []byte { b[0] = 2; return b }), "expected a verdict message"},
		{"verdict for an earlier generation", "verdict", verdict{Gen: 4}.encode(), "verdict for generation 4 received at generation 5"},
		{"verdict for a later generation", "verdict", with(ver, setField(0, math.MaxUint32)), "verdict for generation 4294967295 received at generation 5"},
		{"stop for another generation", "verdict", verdict{Gen: 6, Stop: true}.encode(), "verdict for generation 6 received at generation 5"},
		{"a cell count without cells", "verdict", with(ver, setField(1, 1)), "is not the 14-byte encoding"},
		{"generation's high word set", "verdict", with(ver, setField(2, 8)), "verdict for generation 34359738373 received at generation 5"},
		{"unknown flag", "verdict", with(ver, func(b []byte) []byte { b[1] |= 2; return b }), "is not the 14-byte encoding"},
		{"unknown high flag", "verdict", with(ver, func(b []byte) []byte { b[1] |= 0x80; return b }), "encoding"},
		{"trailing byte", "verdict", append(append([]byte(nil), ver...), 0), "verdict of 15 bytes"},
		{"a strategy aboard a verdict", "verdict", append(append([]byte(nil), ver...), pure...), "encoding"},
		{"cells for another generation", "cells", verdict{Gen: 4, Cells: []float64{1, 3}}.encode(), "verdict for generation 4 received at generation 5"},
		{"one cell short", "cells", verdict{Gen: 5, Cells: []float64{1}}.encode(), "verdict with 1 cells received at generation 5, which misses 2"},
		{"one cell over", "cells", verdict{Gen: 5, Cells: []float64{1, 3, 3}}.encode(), "verdict with 3 cells"},
		{"no cells", "cells", verdict{Gen: 5}.encode(), "verdict with 0 cells"},
		{"cells where none are missing", "verdict", cel, "verdict with 2 cells received at generation 5, which misses 0"},
		{"cells aboard a stop", "cells", verdict{Gen: 5, Stop: true, Cells: []float64{1, 3}}.encode(), "verdict with 2 cells received at generation 5, which misses 0"},
		{"cell count field off", "cells", with(cel, setField(1, 3)), "encoding"},
		{"cells' generation 2^32 later", "cells", with(cel, setField(2, 1)), "verdict for generation 4294967301 received at generation 5"},
		{"half a cell", "cells", cel[:len(cel)-4], "encoding"},
		{"report not bytes", "report", []float64{1}, "rank 2 sent []float64"},
		{"no report", "report", nil, "rank 2 sent <nil>"},
		{"empty report", "report", []byte{}, "rank 2 sent []uint8"},
		{"a verdict for a report", "report", ver, "rank 2 sent []uint8 01"},
		{"a JSON report", "report", []byte(`{"counters":{"GamesPlayed":1},"live":3}`), "want its report"},
		{"report of an unknown kind", "report", with(untimed, func(b []byte) []byte { b[0] = 3; return b }), "want its report"},
		{"unknown report flag", "report", with(untimed, flags(4)), "report of rank 2 of 42 bytes"},
		{"unknown high report flag", "report", with(rep, flags(0x83)), "is not the 130-byte encoding"},
		{"phase block missing", "report", cut(rep, 42), "report of rank 2 of 66 bytes"},
		{"phase block extra", "report", with(rep, flags(2)), "report of rank 2 of 130 bytes"},
		{"cache block missing", "report", rep[:106], "report of rank 2 of 106 bytes"},
		{"cache block extra", "report", with(rep, flags(1)), "is not the 106-byte encoding"},
		{"report's trailing byte", "report", append(append([]byte(nil), rep...), 0), "report of rank 2 of 131 bytes"},
		{"counters cut short", "report", untimed[:38], "report of rank 2 of 38 bytes"},
		{"live count cut short", "report", untimed[:41], "is not the 42-byte encoding"},
		{"head only", "report", untimed[:2], "of 2 bytes"},
		{"nanos cut short", "report", with(rep, flags(1))[:100], "of 100 bytes"},
	} {
		err := decoders[tc.decoder](tc.payload)
		if err == nil || !strings.HasPrefix(err.Error(), "sim: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a sim: error containing %q", tc.name, err, tc.want)
		}
	}
	// The unmodified messages do decode; so does a stop, whatever cells the
	// meeting it ends misses.
	stop := verdict{Gen: 5, Stop: true}.encode()
	for _, ok := range []struct {
		decoder string
		payload []byte
	}{{"verdict", ver}, {"verdict", stop}, {"cells", cel}, {"cells", stop}} {
		if err := decoders[ok.decoder](ok.payload); err != nil {
			t.Errorf("%s: %v", ok.decoder, err)
		}
	}
}

// What a worker gathers to Nature is checked like a broadcast: its share of
// the missing cells, as a []float64 of the share's length — a payload of
// another type or length is an error, not a Nature-rank panic or a silently
// forked trajectory.
func TestCellPayloadsAreChecked(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload any
		want    string
	}{
		{"cells of another type", []byte{1, 2, 3}, "rank 1 sent []uint8 (0 cells) at generation 0, want the"},
		{"no cells", []float64{}, "rank 1 sent []float64 (0 cells) at generation 0, want the"},
		{"nothing", nil, "rank 1 sent <nil> (0 cells)"},
		{"cells over its share", make([]float64, 13), "rank 1 sent []float64 (13 cells) at generation 0, want the"},
	} {
		// Served by type and, on the reference kernel, keyed by SSet, where
		// the only worker's share is 6 of the 12 cells.
		base := testConfig(1, 4, 1)
		for _, cfg := range []Config{base, reference(base)} {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			var natureErr error
			_ = mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					natureErr = newParRank(&cfg, c).run()
					return natureErr
				}
				// A corrupt peer in the only worker's place, at generation 0's
				// fill of the initial population's cells.
				_, err := c.Gather(0, tc.payload)
				return err
			})
			if natureErr == nil || !strings.HasPrefix(natureErr.Error(), "sim: ") || !strings.Contains(natureErr.Error(), tc.want) {
				t.Errorf("%s, served by type %v: Nature's error %v, want a sim: error containing %q", tc.name, ServedByType(&cfg), natureErr, tc.want)
			}
		}
	}
}

// runReporting runs cfg on a world of ranks whose last worker ships what
// send makes of its end-of-window report in place of the report's
// encoding, and returns Nature's error.
func runReporting(t *testing.T, cfg Config, ranks int, send func(rankReport) []byte) error {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var natureErr error
	_ = mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
		r := newParRank(&cfg, c)
		if c.Rank() != ranks-1 {
			err := r.run()
			if c.Rank() == 0 {
				natureErr = err
			}
			return err
		}
		// run, up to finalize's meeting.
		for r.gen < r.end {
			if err := r.generation(); err != nil {
				return err
			}
		}
		r.cells = r.cells[:0]
		_, err := r.meet(r.end, send(r.report()))
		return err
	})
	return natureErr
}

// A worker whose end-of-window report is garbled fails the run at Nature
// with an error naming that worker, whether the table is keyed by type or by
// SSet and with metrics or without; the worker's own report passes.
func TestGarbledReportFailsTheRun(t *testing.T) {
	base := testConfig(1, 6, 20)
	base.Seed = 341
	metered := base
	metered.Metrics = true
	for _, tc := range []struct {
		name string
		send func(rankReport) []byte
		want string
	}{
		{"its own", rankReport.encode, ""},
		{"a trailing byte", func(rep rankReport) []byte { return append(rep.encode(), 0) }, "sim: report of rank 2 of "},
		{"an unknown flag", func(rep rankReport) []byte { b := rep.encode(); b[1] |= 0x80; return b }, "sim: report of rank 2 of "},
		{"a JSON report", func(rankReport) []byte { return []byte(`{"live":1}`) }, "sim: rank 2 sent []uint8 7b226c69"},
	} {
		for _, cfg := range []Config{base, reference(base), metered} {
			err := runReporting(t, cfg, 3, tc.send)
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)) {
				t.Errorf("%s, served by type %v, metrics %v: Nature's error %v, want %q", tc.name, ServedByType(&cfg), cfg.Metrics, err, tc.want)
			}
		}
	}
}

// FuzzEngineMessage feeds arbitrary bytes to the verdict and report
// decoders: each must refuse them or return a message that encodes back to
// exactly those bytes, and a verdict it accepts must be safe to apply — for
// the receiver's own generation and missing cells.
func FuzzEngineMessage(f *testing.F) {
	const at = 9 // the generation the receiver stands at
	f.Add(verdict{Gen: at, Stop: true, Cells: []float64{1}}.encode())
	f.Add(verdict{Gen: at, Stop: true}.encode())
	f.Add(verdict{Gen: at}.encode())
	f.Add(verdict{Gen: at + 1, Cells: []float64{2, 3}}.encode())
	f.Add(append([]byte{2, 0}, make([]byte, 12)...))                     // another kind of message
	f.Add(verdict{Gen: at, Cells: []float64{1}}.encode()[:msgHeadLen-1]) // a head cut short
	f.Add([]byte{})
	f.Add(verdict{Gen: at, Cells: []float64{2, math.NaN()}}.encode())
	f.Add(timedReport().encode())
	f.Add(rankReport{Live: 2, Counters: Counters{GamesPlayed: 30}}.encode())
	f.Add(rankReport{Phases: new(phaseTimer)}.encode()[:50]) // a phase block cut short
	f.Add(append(rankReport{}.encode(), 0))                  // a trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		if rep, err := decodeReport(1, data); err == nil {
			if re := rep.encode(); !bytes.Equal(re, data) {
				t.Fatalf("report re-encodes to %x, was %x", re, data)
			}
		}
		for _, cells := range []int{0, 2} {
			v, err := decodeVerdict(data, at, cells)
			if err != nil {
				continue
			}
			if v.Gen != at || len(v.Cells) != cells && !v.Stop || v.Stop && len(v.Cells) != 0 {
				t.Fatalf("accepted verdict %+v at generation %d, %d cells missing", v, at, cells)
			}
			if re := v.encode(); !bytes.Equal(re, data) {
				t.Fatalf("verdict re-encodes to %x, was %x", re, data)
			}
		}
	})
}
