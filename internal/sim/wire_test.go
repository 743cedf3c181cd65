package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// wireConfig is the run a message is decoded against.
func wireConfig(mem, ssets int, kind StrategyKind) *Config {
	cfg := testConfig(mem, ssets, 10)
	cfg.Kind = kind
	return &cfg
}

// sameStrategies compares two strategy lists by content.
func sameStrategies(a, b []strategy.Strategy) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || a[i] != nil && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// The size of a strategy aboard a message: kind, length, then the bitset's
// length word and one bit per state, or one float64 per state.
func pureBytes(mem int) int  { return 5 + 8 + max(8, strategy.NewSpace(mem).NumStates()/8) }
func mixedBytes(mem int) int { return 5 + 8*strategy.NewSpace(mem).NumStates() }

func TestVerdictRoundTrip(t *testing.T) {
	cfg := wireConfig(1, 8, PureStrategies)
	for _, v := range []verdict{
		{},
		{Gen: 1 << 20, Stop: true},
		{Gen: math.MaxUint32},
		{Gen: 7, Cells: []float64{1, 2.5, 0, math.Inf(1)}},
	} {
		b := v.encode()
		if len(b) != 14+8*len(v.Cells) {
			t.Fatalf("%+v encodes to %d bytes, want %d", v, len(b), 14+8*len(v.Cells))
		}
		got, err := decodeVerdict(cfg, b, v.Gen, len(v.Cells))
		if err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("%+v round trip: %+v, %v", v, got, err)
		}
	}
}

func TestResumeRoundTripAndSize(t *testing.T) {
	for _, tc := range []struct {
		mem  int
		kind StrategyKind
		each int
	}{{1, PureStrategies, pureBytes(1)}, {6, PureStrategies, pureBytes(6)}, {2, MixedStrategies, mixedBytes(2)}} {
		cfg := wireConfig(tc.mem, 6, tc.kind)
		pop := NewPopulation(*cfg, rng.New(11))
		// A run seeded with InitialStrategies may hold either kind.
		pop.strategies[2] = strategy.AllD(pop.Space())
		rs := resume{Gen: 1 << 20, Strategies: pop.strategies}
		b := rs.encode()
		want := 14 + 5*tc.each + pureBytes(tc.mem)
		if len(b) != want {
			t.Errorf("memory %d: %d bytes, want %d", tc.mem, len(b), want)
		}
		got, err := decodeResume(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Gen != rs.Gen || !sameStrategies(got.Strategies, rs.Strategies) {
			t.Errorf("memory %d: resume changed in transit", tc.mem)
		}
	}
	// The sizes the docs quote: a memory-6 mixed strategy is 32 KiB and change.
	if pureBytes(1) != 21 || pureBytes(6) != 525 || mixedBytes(1) != 37 || mixedBytes(6) != 32773 {
		t.Fatalf("strategy sizes moved: %d %d %d %d", pureBytes(1), pureBytes(6), mixedBytes(1), mixedBytes(6))
	}
}

// Every way a received message can be wrong is an error naming what is
// wrong — never a type assertion, a verdict applied to the wrong generation
// or a strategy table the worker would trip over later.
func TestEngineMessageRejections(t *testing.T) {
	cfg := wireConfig(2, 8, PureStrategies)
	pure := strategy.AllD(strategy.NewSpace(2))
	ver := verdict{Gen: 5}.encode()
	pop := NewPopulation(*cfg, rng.New(3))
	res := resume{Gen: 5, Strategies: pop.strategies}.encode()
	cel := verdict{Gen: 5, Cells: []float64{1, 3}}.encode()

	with := func(b []byte, mut func(b []byte) []byte) []byte { return mut(append([]byte(nil), b...)) }
	setField := func(i int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[2+4*i:], v); return b }
	}
	// The receiver stands at generation 5, at a meeting that misses no cell
	// or, for "cells", two.
	decoders := map[string]func(any) error{
		"verdict": func(p any) error { _, err := decodeVerdict(cfg, p, 5, 0); return err },
		"cells":   func(p any) error { _, err := decodeVerdict(cfg, p, 5, 2); return err },
		"resume":  func(p any) error { _, err := decodeResume(cfg, p); return err },
	}
	for _, tc := range []struct {
		name    string
		decoder string
		payload any
		want    string // a fragment of the error
	}{
		{"not bytes", "verdict", []float64{1}, "expected a verdict message, received []float64"},
		{"nil", "verdict", nil, "expected a verdict message"},
		{"empty", "resume", []byte{}, "expected a resume message"},
		{"short head", "verdict", ver[:13], "expected a verdict message"},
		{"resume where a verdict was due", "verdict", res, "expected a verdict message"},
		{"verdict where a resume was due", "resume", ver, "expected a resume message"},
		{"verdict for an earlier generation", "verdict", verdict{Gen: 4}.encode(), "verdict for generation 4 received at generation 5"},
		{"verdict for a later generation", "verdict", with(ver, setField(0, math.MaxUint32)), "verdict for generation 4294967295 received at generation 5"},
		{"stop for another generation", "verdict", verdict{Gen: 6, Stop: true}.encode(), "verdict for generation 6 received at generation 5"},
		{"a cell count without cells", "verdict", with(ver, setField(1, 1)), "is not the 14-byte encoding"},
		{"second unused field set", "verdict", with(ver, setField(2, 8)), "is not the 14-byte encoding"},
		{"unknown flag", "verdict", with(ver, func(b []byte) []byte { b[1] |= 2; return b }), "is not the 14-byte encoding"},
		{"unknown high flag", "verdict", with(ver, func(b []byte) []byte { b[1] |= 0x80; return b }), "encoding"},
		{"trailing byte", "verdict", append(append([]byte(nil), ver...), 0), "verdict of 15 bytes"},
		{"a strategy aboard a verdict", "verdict", checkpoint.AppendStrategy(append([]byte(nil), ver...), pure), "encoding"},
		{"one strategy short", "resume", res[:len(res)-pureBytes(2)], "resume strategy 7: EOF"},
		{"one strategy over", "resume", checkpoint.AppendStrategy(append([]byte(nil), res...), pure), "encoding"},
		{"trailing bytes after the strategies", "resume", append(append([]byte(nil), res...), 1, 2, 3), "bytes"},
		{"truncated strategy", "resume", res[:len(res)-1], "resume strategy 7"},
		{"unknown strategy kind", "resume", with(res, func(b []byte) []byte { b[14] = 9; return b }), "unknown strategy kind 9"},
		{"padding bits in a bitset", "resume", with(res, func(b []byte) []byte { b[len(b)-1] = 0x80; return b }), "encoding"},
		{"resume flags", "resume", with(res, func(b []byte) []byte { b[1] = 1; return b }), "encoding"},
		{"resume second field set", "resume", with(res, setField(1, 4)), "encoding"},
		{"resume unused field set", "resume", with(res, setField(2, 1)), "encoding"},
		{"resume strategy of another depth", "resume", resume{Strategies: append([]strategy.Strategy{strategy.AllD(strategy.NewSpace(1))}, pop.strategies[1:]...)}.encode(), "resume strategy 0: pure strategy has 4 states, want 16"},
		{"cells for another generation", "cells", verdict{Gen: 4, Cells: []float64{1, 3}}.encode(), "verdict for generation 4 received at generation 5"},
		{"one cell short", "cells", verdict{Gen: 5, Cells: []float64{1}}.encode(), "verdict with 1 cells received at generation 5, which misses 2"},
		{"one cell over", "cells", verdict{Gen: 5, Cells: []float64{1, 3, 3}}.encode(), "verdict with 3 cells"},
		{"no cells", "cells", verdict{Gen: 5}.encode(), "verdict with 0 cells"},
		{"cells where none are missing", "verdict", cel, "verdict with 2 cells received at generation 5, which misses 0"},
		{"cells aboard a stop", "cells", verdict{Gen: 5, Stop: true, Cells: []float64{1, 3}}.encode(), "verdict with 2 cells received at generation 5, which misses 0"},
		{"cell count field off", "cells", with(cel, setField(1, 3)), "encoding"},
		{"cells' unused field set", "cells", with(cel, setField(2, 1)), "encoding"},
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
	}{{"verdict", ver}, {"verdict", stop}, {"resume", res}, {"cells", cel}, {"cells", stop}} {
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
		// the only worker's share is all 12 cells.
		base := testConfig(1, 4, 1)
		for _, cfg := range []Config{base, reference(base)} {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			var natureErr error
			_ = mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					natureErr = runRank(&cfg, c, newParRank(&cfg, c))
					return natureErr
				}
				// A corrupt peer in the only worker's place, at generation 0's
				// fill of the initial population's cells.
				_, err := c.Gather(0, tc.payload)
				return err
			})
			if natureErr == nil || !strings.HasPrefix(natureErr.Error(), "sim: ") || !strings.Contains(natureErr.Error(), tc.want) {
				t.Errorf("%s, served by type %v: Nature's error %v, want a sim: error containing %q", tc.name, servedByType(&cfg), natureErr, tc.want)
			}
		}
	}
}

// FuzzEngineMessage feeds arbitrary bytes to the two decoders: each must
// refuse them or return a message that encodes back to exactly those bytes,
// and whatever it accepts must be safe to apply — a verdict for the
// receiver's own generation and missing cells, strategies of the run's
// space.
func FuzzEngineMessage(f *testing.F) {
	cfg := wireConfig(1, 4, MixedStrategies)
	sp := strategy.NewSpace(1)
	pop := NewPopulation(*cfg, rng.New(1))
	const at = 9 // the generation the receiver stands at
	f.Add(verdict{Gen: at, Stop: true, Cells: []float64{1}}.encode())
	f.Add(verdict{Gen: at, Stop: true}.encode())
	f.Add(verdict{Gen: at}.encode())
	f.Add(verdict{Gen: at + 1, Cells: []float64{2, 3}}.encode())
	f.Add(resume{Gen: at, Strategies: pop.strategies}.encode())
	f.Add(resume{Strategies: []strategy.Strategy{strategy.GTFT(sp, 0.25), strategy.WSLS(sp), strategy.AllD(sp), strategy.AllC(sp)}}.encode())
	f.Add([]byte{})
	f.Add(verdict{Gen: at, Cells: []float64{2, math.NaN()}}.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cells := range []int{0, 2} {
			v, err := decodeVerdict(cfg, data, at, cells)
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
		if rs, err := decodeResume(cfg, data); err == nil {
			if len(rs.Strategies) != cfg.NumSSets {
				t.Fatalf("accepted resume with %d strategies", len(rs.Strategies))
			}
			for _, st := range rs.Strategies {
				if st.Space() != sp {
					t.Fatalf("accepted strategy of space %v", st.Space())
				}
			}
			if re := rs.encode(); !bytes.Equal(re, data) {
				t.Fatalf("resume re-encodes to %x, was %x", re, data)
			}
		}
	})
}

// A strategy has one binary form: the bytes aboard a resume are the bytes
// the checkpoint stream holds for the same strategy.
func TestMessageStrategyIsTheCheckpointForm(t *testing.T) {
	sp := strategy.NewSpace(2)
	for _, st := range []strategy.Strategy{strategy.WSLS(sp), strategy.GTFT(sp, 0.1)} {
		var stream bytes.Buffer
		snap := &checkpoint.Snapshot{Memory: 2, Strategies: []strategy.Strategy{st}}
		if err := checkpoint.Write(&stream, snap); err != nil {
			t.Fatal(err)
		}
		aboard := resume{Strategies: []strategy.Strategy{st}}.encode()[14:]
		if !bytes.Contains(stream.Bytes(), aboard) {
			t.Errorf("%T: the message carries %x, the checkpoint stream %x", st, aboard, stream.Bytes())
		}
		back, err := checkpoint.ReadStrategy(bytes.NewReader(aboard), sp)
		if err != nil || !reflect.DeepEqual(back, st) && !back.Equal(st) {
			t.Errorf("%T: read back %v, %v", st, back, err)
		}
	}
}
