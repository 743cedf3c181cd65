package sim

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
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

func TestSelectionRoundTrip(t *testing.T) {
	cfg := wireConfig(1, 8, PureStrategies)
	for _, sel := range []selection{
		{},
		{Stop: true},
		{PC: true, Teacher: 7, Learner: 0},
		{PC: true, Stop: true, Teacher: 3, Learner: 4},
	} {
		b := sel.encode()
		if len(b) != 14 {
			t.Fatalf("%+v encodes to %d bytes, want 14", sel, len(b))
		}
		got, err := decodeSelection(cfg, b)
		if err != nil || got != sel {
			t.Fatalf("%+v round trip: %+v, %v", sel, got, err)
		}
	}
}

func TestUpdateRoundTripAndSize(t *testing.T) {
	src := rng.New(5)
	for _, tc := range []struct {
		name string
		mem  int
		kind StrategyKind
		u    update
		size int
	}{
		{"bare", 1, PureStrategies, update{}, 14},
		{"adoption", 1, PureStrategies, update{Adopted: true, Learner: 2, Teacher: 5, MeanFitnessWanted: true}, 14},
		{"pure mutant memory 1", 1, PureStrategies, update{Mutated: true, Mutant: 7}, 14 + pureBytes(1)},
		{"pure mutant memory 6", 6, PureStrategies, update{Adopted: true, Learner: 1, Mutated: true, Mutant: 3}, 14 + pureBytes(6)},
		{"mixed mutant memory 1", 1, MixedStrategies, update{Mutated: true, Mutant: 0, MeanFitnessWanted: true}, 14 + mixedBytes(1)},
		{"mixed mutant memory 6", 6, MixedStrategies, update{Mutated: true, Mutant: 6}, 14 + mixedBytes(6)},
	} {
		cfg := wireConfig(tc.mem, 8, tc.kind)
		u := tc.u
		if u.Mutated {
			u.MutantStrategy = randomStrategy(tc.kind, strategy.NewSpace(tc.mem), src)
		}
		b := u.encode()
		if len(b) != tc.size {
			t.Errorf("%s: %d bytes, want %d", tc.name, len(b), tc.size)
		}
		got, err := decodeUpdate(cfg, b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameStrategies([]strategy.Strategy{got.MutantStrategy}, []strategy.Strategy{u.MutantStrategy}) {
			t.Errorf("%s: mutant strategy changed in transit", tc.name)
		}
		got.MutantStrategy, u.MutantStrategy = nil, nil
		if got != u {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, u)
		}
	}
	// The sizes the docs quote: a memory-6 mixed mutant is 32 KiB and change.
	if pureBytes(1) != 21 || pureBytes(6) != 525 || mixedBytes(1) != 37 || mixedBytes(6) != 32773 {
		t.Fatalf("strategy sizes moved: %d %d %d %d", pureBytes(1), pureBytes(6), mixedBytes(1), mixedBytes(6))
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
		rs := resume{Gen: 1 << 20, Replay: 1<<20 - 1, Strategies: pop.strategies}
		b := rs.encode()
		want := 14 + 5*tc.each + pureBytes(tc.mem)
		if len(b) != want {
			t.Errorf("memory %d: %d bytes, want %d", tc.mem, len(b), want)
		}
		got, err := decodeResume(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Gen != rs.Gen || got.Replay != rs.Replay || !sameStrategies(got.Strategies, rs.Strategies) {
			t.Errorf("memory %d: resume changed in transit", tc.mem)
		}
	}
}

// Every way a received message can be wrong is an error naming what is
// wrong — never an index, a type assertion or a strategy table the worker
// would trip over later.
func TestEngineMessageRejections(t *testing.T) {
	cfg := wireConfig(2, 8, PureStrategies)
	sp := strategy.NewSpace(2)
	pure, mixed := strategy.AllD(sp), strategy.GTFT(sp, 0.3)
	sel := selection{PC: true, Teacher: 1, Learner: 2}.encode()
	upd := update{Adopted: true, Learner: 1, Teacher: 2, Mutated: true, Mutant: 3, MutantStrategy: pure}.encode()
	pop := NewPopulation(*cfg, rng.New(3))
	res := resume{Gen: 5, Replay: 5, Strategies: pop.strategies}.encode()

	with := func(b []byte, mut func(b []byte) []byte) []byte { return mut(append([]byte(nil), b...)) }
	setField := func(i int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[2+4*i:], v); return b }
	}
	decoders := map[string]func(any) error{
		"selection": func(p any) error { _, err := decodeSelection(cfg, p); return err },
		"update":    func(p any) error { _, err := decodeUpdate(cfg, p); return err },
		"resume":    func(p any) error { _, err := decodeResume(cfg, p); return err },
	}
	for _, tc := range []struct {
		name    string
		decoder string
		payload any
		want    string // a fragment of the error
	}{
		{"not bytes", "selection", []float64{1}, "expected a selection message, received []float64"},
		{"nil", "update", nil, "expected a update message"},
		{"empty", "resume", []byte{}, "expected a resume message"},
		{"short head", "selection", sel[:13], "expected a selection message"},
		{"update where a selection was due", "selection", upd, "expected a selection message"},
		{"selection where an update was due", "update", sel, "expected a update message"},
		{"selection where a resume was due", "resume", sel, "expected a resume message"},
		{"teacher out of range", "selection", with(sel, setField(0, 8)), "selection teacher 8 outside [0,8)"},
		{"learner out of range", "selection", with(sel, setField(1, math.MaxUint32)), "selection learner 4294967295 outside [0,8)"},
		{"unused field set", "selection", with(sel, setField(2, 1)), "is not the 14-byte encoding"},
		{"unknown flag", "selection", with(sel, func(b []byte) []byte { b[1] |= 4; return b }), "is not the 14-byte encoding"},
		{"trailing byte", "selection", append(append([]byte(nil), sel...), 0), "selection of 15 bytes"},
		{"update learner out of range", "update", with(upd, setField(0, 99)), "update learner 99 outside"},
		{"update teacher out of range", "update", with(upd, setField(1, 8)), "update teacher 8 outside"},
		{"mutant out of range", "update", with(upd, setField(2, 8)), "update mutant 8 outside"},
		{"unknown update flag", "update", with(upd, func(b []byte) []byte { b[1] |= 0x80; return b }), "encoding"},
		{"mutant of the other kind", "update", update{Mutated: true, MutantStrategy: mixed}.encode(), "not of the run's strategy kind"},
		{"mutant of another depth", "update", update{Mutated: true, MutantStrategy: strategy.AllD(strategy.NewSpace(3))}.encode(), "update strategy 0: pure strategy has 64 states, want 16"},
		{"unknown strategy kind", "update", with(upd, func(b []byte) []byte { b[14] = 9; return b }), "unknown strategy kind 9"},
		{"truncated mutant", "update", upd[:len(upd)-1], "update strategy 0"},
		{"two mutants", "update", checkpoint.AppendStrategy(append([]byte(nil), upd...), pure), "encoding"},
		{"trailing bytes after the mutant", "update", append(append([]byte(nil), upd...), 1, 2, 3), "bytes"},
		{"padding bits in a bitset", "update", with(upd, func(b []byte) []byte { b[len(b)-1] = 0x80; return b }), "encoding"},
		{"one strategy short", "resume", res[:len(res)-pureBytes(2)], "resume strategy 7: EOF"},
		{"one strategy over", "resume", checkpoint.AppendStrategy(append([]byte(nil), res...), pure), "encoding"},
		{"resume flags", "resume", with(res, func(b []byte) []byte { b[1] = 1; return b }), "encoding"},
		{"resume strategy of another depth", "resume", resume{Strategies: append([]strategy.Strategy{strategy.AllD(strategy.NewSpace(1))}, pop.strategies[1:]...)}.encode(), "resume strategy 0: pure strategy has 4 states, want 16"},
	} {
		err := decoders[tc.decoder](tc.payload)
		if err == nil || !strings.HasPrefix(err.Error(), "sim: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a sim: error containing %q", tc.name, err, tc.want)
		}
	}
	// The unmodified messages do decode.
	for name, b := range map[string][]byte{"selection": sel, "update": upd, "resume": res} {
		if err := decoders[name](b); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzEngineMessage feeds arbitrary bytes to the three decoders: each must
// refuse them or return a message that encodes back to exactly those bytes,
// and whatever it accepts must be safe to apply — indices inside the
// population, strategies of the run's space.
func FuzzEngineMessage(f *testing.F) {
	cfg := wireConfig(1, 4, MixedStrategies)
	sp := strategy.NewSpace(1)
	pop := NewPopulation(*cfg, rng.New(1))
	f.Add(selection{PC: true, Teacher: 1, Learner: 3}.encode())
	f.Add(selection{Stop: true}.encode())
	f.Add(update{Adopted: true, Learner: 2, Teacher: 1, MeanFitnessWanted: true}.encode())
	f.Add(update{Mutated: true, Mutant: 3, MutantStrategy: strategy.GTFT(sp, 0.25)}.encode())
	f.Add(update{Mutated: true, Mutant: 1, MutantStrategy: strategy.WSLS(sp)}.encode())
	f.Add(resume{Gen: 9, Replay: 8, Strategies: pop.strategies}.encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		inRange := func(indices ...int) {
			for _, i := range indices {
				if i < 0 || i >= cfg.NumSSets {
					t.Fatalf("accepted index %d outside [0,%d)", i, cfg.NumSSets)
				}
			}
		}
		if sel, err := decodeSelection(cfg, data); err == nil {
			inRange(sel.Teacher, sel.Learner)
			if re := sel.encode(); !bytes.Equal(re, data) {
				t.Fatalf("selection re-encodes to %x, was %x", re, data)
			}
		}
		if u, err := decodeUpdate(cfg, data); err == nil {
			inRange(u.Learner, u.Teacher, u.Mutant)
			if u.Mutated != (u.MutantStrategy != nil) || u.Mutated && u.MutantStrategy.Space() != sp {
				t.Fatalf("accepted update %+v", u)
			}
			if re := u.encode(); !bytes.Equal(re, data) {
				t.Fatalf("update re-encodes to %x, was %x", re, data)
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

// A strategy has one binary form: the bytes aboard an update are the bytes
// the checkpoint stream holds for the same strategy.
func TestMessageStrategyIsTheCheckpointForm(t *testing.T) {
	sp := strategy.NewSpace(2)
	for _, st := range []strategy.Strategy{strategy.WSLS(sp), strategy.GTFT(sp, 0.1)} {
		var stream bytes.Buffer
		snap := &checkpoint.Snapshot{Memory: 2, Strategies: []strategy.Strategy{st}}
		if err := checkpoint.Write(&stream, snap); err != nil {
			t.Fatal(err)
		}
		aboard := update{Mutated: true, MutantStrategy: st}.encode()[14:]
		if !bytes.Contains(stream.Bytes(), aboard) {
			t.Errorf("%T: the message carries %x, the checkpoint stream %x", st, aboard, stream.Bytes())
		}
		back, err := checkpoint.ReadStrategy(bytes.NewReader(aboard), sp)
		if err != nil || !reflect.DeepEqual(back, st) && !back.Equal(st) {
			t.Errorf("%T: read back %v, %v", st, back, err)
		}
	}
}
