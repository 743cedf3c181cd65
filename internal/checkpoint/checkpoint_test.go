package checkpoint

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/strategy"
)

func pureSnapshot(t *testing.T, n, count int) *Snapshot {
	t.Helper()
	sp := strategy.NewSpace(n)
	src := rng.New(1)
	s := &Snapshot{Generation: 12345, Seed: 99, Memory: n}
	for i := 0; i < count; i++ {
		s.Strategies = append(s.Strategies, strategy.RandomPure(sp, src))
	}
	return s
}

func TestPureRoundTrip(t *testing.T) {
	for _, mem := range []int{1, 3, 6} {
		s := pureSnapshot(t, mem, 17)
		s.Fitness = make([]float64, 17)
		for i := range s.Fitness {
			s.Fitness[i] = float64(i) * 1.5
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Generation != 12345 || got.Seed != 99 || got.Memory != mem {
			t.Fatalf("header mismatch: %+v", got)
		}
		if len(got.Strategies) != 17 {
			t.Fatalf("%d strategies", len(got.Strategies))
		}
		for i := range got.Strategies {
			if !got.Strategies[i].Equal(s.Strategies[i]) {
				t.Fatalf("strategy %d differs", i)
			}
		}
		for i := range got.Fitness {
			if got.Fitness[i] != s.Fitness[i] {
				t.Fatalf("fitness %d differs", i)
			}
		}
	}
}

func TestMixedRoundTrip(t *testing.T) {
	sp := strategy.NewSpace(2)
	src := rng.New(2)
	s := &Snapshot{Generation: 7, Seed: 1, Memory: 2}
	for i := 0; i < 5; i++ {
		s.Strategies = append(s.Strategies, strategy.RandomMixed(sp, src))
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Strategies {
		if !got.Strategies[i].Equal(s.Strategies[i]) {
			t.Fatalf("mixed strategy %d differs", i)
		}
	}
	if got.Fitness != nil {
		t.Fatal("fitness materialised from nothing")
	}
}

func TestMixedKindsRoundTrip(t *testing.T) {
	sp := strategy.NewSpace(1)
	s := &Snapshot{Generation: 1, Memory: 1}
	s.Strategies = []strategy.Strategy{
		strategy.WSLS(sp),
		strategy.GTFT(sp, 0.3),
		strategy.AllD(sp),
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Strategies {
		if !got.Strategies[i].Equal(s.Strategies[i]) {
			t.Fatalf("strategy %d differs", i)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	if (&Snapshot{Memory: 0, Strategies: nil}).Validate() == nil {
		t.Fatal("bad memory accepted")
	}
	if (&Snapshot{Memory: 1}).Validate() == nil {
		t.Fatal("empty strategies accepted")
	}
	sp1, sp2 := strategy.NewSpace(1), strategy.NewSpace(2)
	s := &Snapshot{Memory: 1, Strategies: []strategy.Strategy{strategy.AllC(sp2)}}
	_ = sp1
	if s.Validate() == nil {
		t.Fatal("space mismatch accepted")
	}
	s = &Snapshot{Memory: 1, Strategies: []strategy.Strategy{strategy.AllC(sp1)}, Fitness: []float64{1, 2}}
	if s.Validate() == nil {
		t.Fatal("fitness length mismatch accepted")
	}
	s = &Snapshot{Memory: 1, Strategies: []strategy.Strategy{nil}}
	if s.Validate() == nil {
		t.Fatal("nil strategy accepted")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	s := pureSnapshot(t, 1, 3)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Every version but the one layout's, the four earlier ones included.
	for _, v := range []byte{0, 1, 2, 3, 4, 6, 0xFF} {
		bad = append([]byte{}, good...)
		bad[4] = v
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: error %v, want unsupported version", v, err)
		}
	}
	// Bad memory byte.
	bad = append([]byte{}, good...)
	bad[6] = 9
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad memory accepted")
	}
	// Truncations at every prefix length must error, not panic.
	for cut := 0; cut < len(good); cut += 3 {
		if _, err := Read(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Empty stream.
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReadRejectsImplausibleCounts(t *testing.T) {
	s := pureSnapshot(t, 1, 2)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Strategy count lives at offset 24 (magic 4 + version 2 + memory 1 +
	// reserved 1 + generation 8 + seed 8), little-endian uint32.
	zeroCount := append([]byte{}, good...)
	zeroCount[24], zeroCount[25], zeroCount[26], zeroCount[27] = 0, 0, 0, 0
	if _, err := Read(bytes.NewReader(zeroCount)); err == nil {
		t.Fatal("zero strategy count accepted")
	}
	hugeCount := append([]byte{}, good...)
	hugeCount[24], hugeCount[25], hugeCount[26], hugeCount[27] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Read(bytes.NewReader(hugeCount)); err == nil {
		t.Fatal("implausible strategy count accepted")
	}
	// The first strategy's kind byte follows the count, at offset 28, and
	// its blob length is the uint32 after it. A length of 2^31 or more is
	// refused as the uint32 it arrives as (converted to a 32-bit int first,
	// it went negative and make panicked).
	for _, blob := range []uint32{0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		hugeBlob := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(hugeBlob[29:], blob)
		if _, err := Read(bytes.NewReader(hugeBlob)); err == nil {
			t.Fatalf("pure blob of %d bytes accepted", blob)
		}
	}
	badKind := append([]byte{}, good...)
	badKind[28] = 99
	if _, err := Read(bytes.NewReader(badKind)); err == nil {
		t.Fatal("unknown strategy kind accepted")
	}
	// The stream ends with the three uint32 counts of the two series and the
	// played generations; the fitness count precedes the 32 counter bytes.
	for _, tc := range []struct {
		name string
		at   int // offset from the end of the stream
		n    uint32
	}{
		{"a fitness count between none and every strategy", 12 + 32 + 4, 1},
		{"a fitness count past the strategies", 12 + 32 + 4, 3},
		{"a series past the cap", 12, 1<<20 + 1},
		{"a played count past the strategies", 4, 3},
		{"a played count between none and every strategy", 4, 1},
	} {
		bad := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(bad[len(bad)-tc.at:], tc.n)
		bad = append(bad, make([]byte, 64)...) // entries enough for the count
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// A series point's generation arrives as a uint64; one past math.MaxInt is
// refused rather than wrapped into a negative int.
func TestReadRejectsSeriesGenerationPastInt(t *testing.T) {
	s := pureSnapshot(t, 1, 2)
	s.MeanFitness = []stats.Point{{Generation: 3, Value: 1.5}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The point (generation, value) sits before the cooperation and played
	// counts.
	binary.LittleEndian.PutUint64(data[len(data)-8-16:], uint64(math.MaxInt)+1)
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "overflows int") {
		t.Fatalf("a series generation past math.MaxInt: error %v", err)
	}
}

// A count the stream does not back is an error at the end of the data, not a
// 2^28-entry allocation first (FuzzRead's worker died on one such header).
func TestReadAllocatesWhatTheStreamHolds(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, pureSnapshot(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	lying := buf.Bytes()
	lying[24], lying[25], lying[26], lying[27] = 0, 0, 0, 0x10 // 1<<28, the cap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(bytes.NewReader(lying)); err == nil {
		t.Fatal("a count of 1<<28 over two strategies accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting the stream allocated %d bytes", got)
	}
}

func TestReadRejectsWrongStateCount(t *testing.T) {
	// A memory-2 snapshot whose header claims memory-1 must be rejected
	// because the strategy tables have the wrong state count.
	s := pureSnapshot(t, 2, 1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[6] = 1 // memory byte
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("state-count mismatch accepted")
	}
}

func TestReadRejectsOutOfRangeProbs(t *testing.T) {
	sp := strategy.NewSpace(1)
	s := &Snapshot{Generation: 1, Memory: 1,
		Strategies: []strategy.Strategy{strategy.GTFT(sp, 0.5)}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The final probability is the 8 bytes before the fitness count (4),
	// the counters (32) and the three trailing counts (12); set them to the
	// bit pattern of 2.0 (out of range).
	binary.LittleEndian.PutUint64(data[len(data)-48-8:], math.Float64bits(2))
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
}

func TestCountersRoundTrip(t *testing.T) {
	s := pureSnapshot(t, 2, 5)
	s.Counters = &RunCounters{GamesPlayed: 123456, PCEvents: 77, Adoptions: 42, Mutations: 9}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters == nil || *got.Counters != *s.Counters {
		t.Fatalf("counters round trip: got %+v, want %+v", got.Counters, s.Counters)
	}
	// Truncating the counter block (before the three trailing counts) must
	// error, not silently drop it.
	buf.Reset()
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-12-8])); err == nil {
		t.Fatal("truncated counter block accepted")
	}
	// A snapshot without counters is written with zero ones.
	s.Counters = nil
	buf.Reset()
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(&buf); err != nil || got.Counters == nil || *got.Counters != (RunCounters{}) {
		t.Fatalf("nil counters read back as %+v (%v), want zeros", got.Counters, err)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Memory: 1}); err == nil {
		t.Fatal("invalid snapshot written")
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	s := pureSnapshot(t, 2, 5)
	s.Counters = &RunCounters{GamesPlayed: 10, PCEvents: 2, Adoptions: 1, Mutations: 3}
	s.MeanFitness = []stats.Point{{Generation: 0, Value: 1.25}, {Generation: 7, Value: 2.5}}
	s.Cooperation = []stats.Point{{Generation: 0, Value: 0.5}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MeanFitness) != 2 || got.MeanFitness[1] != s.MeanFitness[1] {
		t.Fatalf("mean fitness series: got %+v, want %+v", got.MeanFitness, s.MeanFitness)
	}
	if len(got.Cooperation) != 1 || got.Cooperation[0] != s.Cooperation[0] {
		t.Fatalf("cooperation series: got %+v, want %+v", got.Cooperation, s.Cooperation)
	}
	if got.Counters == nil || *got.Counters != *s.Counters {
		t.Fatalf("counters: got %+v, want %+v", got.Counters, s.Counters)
	}

	// A truncated series block errors instead of silently shortening.
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-4-4])); err == nil {
		t.Fatal("truncated series block accepted")
	}
}

// Write, Read and Write again give the same bytes: a snapshot with every
// block populated and one with every optional block empty, so the one layout
// carries both without a distinction the codec would have to remember.
func TestRoundTripIsByteIdentical(t *testing.T) {
	full := pureSnapshot(t, 2, 3)
	full.Strategies[1] = strategy.GTFT(strategy.NewSpace(2), 0.25)
	full.Fitness = []float64{1.5, 2.25, math.Inf(1)}
	full.Counters = &RunCounters{GamesPlayed: 1 << 40, PCEvents: 7, Adoptions: 3, Mutations: 2}
	full.MeanFitness = []stats.Point{{Generation: 0, Value: 1.25}, {Generation: 12000, Value: 2.5}}
	full.Cooperation = []stats.Point{{Generation: 0, Value: 0.5}}
	full.Played = []uint64{12345, 0, 99}
	empty := pureSnapshot(t, 1, 2)
	for name, s := range map[string]*Snapshot{"every block populated": full, "every block empty": empty} {
		var first, second bytes.Buffer
		if err := Write(&first, s); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Write(&second, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: re-encoded stream differs:\n%x\n%x", name, first.Bytes(), second.Bytes())
		}
	}
}

func TestSeriesRejectsImplausibleLength(t *testing.T) {
	s := pureSnapshot(t, 1, 2)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Overwrite the mean-fitness series length (the stream ends with the
	// three u32 counts of the series and the played generations) with a
	// value over the cap.
	binary.LittleEndian.PutUint32(data[len(data)-12:], 0x7fffffff)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("implausible series length accepted")
	}
}

// Write refuses what Read refuses: a series past the cap fails at the
// checkpoint instead of leaving a file no resume can read.
func TestWriteRefusesSeriesReadRefuses(t *testing.T) {
	for _, long := range []string{"mean fitness", "cooperation"} {
		s := pureSnapshot(t, 1, 2)
		pts := make([]stats.Point, maxSeriesPoints+1)
		for i := range pts {
			pts[i].Generation = i
		}
		if long == "mean fitness" {
			s.MeanFitness = pts
		} else {
			s.Cooperation = pts
		}
		if err := Write(io.Discard, s); err == nil {
			t.Errorf("Write accepted a %s series of %d points", long, len(pts))
		}
	}
}

// RemoveTemps deletes exactly the names ReplaceFile's CreateTemp pattern
// can produce; every near miss, and any directory, stays.
func TestRemoveTempsTouchesOnlyTempNames(t *testing.T) {
	dir := t.TempDir()
	keep := []string{"run.ckpt", "journal.jsonl", "x.tmp", "x.tmpl", "x.tmp12b", ".tmp123", "x.tmp1.bak"}
	gone := []string{"run.ckpt.tmp123456789", "journal.jsonl.tmp7"}
	for _, name := range append(append([]string(nil), keep...), gone...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.tmp42"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := RemoveTemps(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range append(keep, "sub.tmp42") {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s was removed: %v", name, err)
		}
	}
	for _, name := range gone {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived (stat err %v)", name, err)
		}
	}
}
