package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/strategy"
)

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
	}
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

// FuzzEngineMessage feeds arbitrary bytes to the verdict decoder: it must
// refuse them or return a verdict that encodes back to exactly those bytes,
// and whatever it accepts must be safe to apply — a verdict for the
// receiver's own generation and missing cells.
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
	f.Fuzz(func(t *testing.T, data []byte) {
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
