package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/rng"
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
	// Bad version.
	bad = append([]byte{}, good...)
	bad[4] = 0xFF
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
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
	// The first strategy's blob length sits after count (4) and the
	// has-fitness byte (1) and the kind byte (1): offset 30.
	hugeBlob := append([]byte{}, good...)
	hugeBlob[30], hugeBlob[31], hugeBlob[32], hugeBlob[33] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Read(bytes.NewReader(hugeBlob)); err == nil {
		t.Fatal("oversized pure blob accepted")
	}
	// Unknown strategy kind at offset 29.
	badKind := append([]byte{}, good...)
	badKind[29] = 99
	if _, err := Read(bytes.NewReader(badKind)); err == nil {
		t.Fatal("unknown strategy kind accepted")
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
	// The last 8 bytes of the stream are the final probability; set them to
	// the bit pattern of 2.0 (out of range).
	for i := 0; i < 8; i++ {
		data[len(data)-8+i] = 0
	}
	data[len(data)-2] = 0x00
	data[len(data)-1] = 0x40 // float64(2.0) high byte
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
	// Counters force the version-2 stream format.
	if v := buf.Bytes()[4]; v != byte(VersionCounters) {
		t.Fatalf("stream version = %d, want %d", v, VersionCounters)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters == nil || *got.Counters != *s.Counters {
		t.Fatalf("counters round trip: got %+v, want %+v", got.Counters, s.Counters)
	}
	// Truncating the counter block must error, not silently drop it.
	buf.Reset()
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-8])); err == nil {
		t.Fatal("truncated counter block accepted")
	}
}

func TestVersion1StreamStaysVersion1(t *testing.T) {
	// A snapshot without counters must encode byte-identically to the
	// pre-counter format: existing checkpoint files and the offset-based
	// corruption tests depend on the version-1 layout.
	s := pureSnapshot(t, 1, 3)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != byte(Version) {
		t.Fatalf("stream version = %d, want %d", v, Version)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters != nil {
		t.Fatalf("counters materialised from a version-1 stream: %+v", got.Counters)
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
	s.MeanFitness = []SeriesPoint{{Generation: 0, Value: 1.25}, {Generation: 7, Value: 2.5}}
	s.Cooperation = []SeriesPoint{{Generation: 0, Value: 0.5}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != byte(VersionSeries) {
		t.Fatalf("stream version = %d, want %d", v, VersionSeries)
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
	if _, err := Read(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Fatal("truncated series block accepted")
	}
}

func TestSeriesEmptyButRecordedSurvivesRoundTrip(t *testing.T) {
	// Non-nil empty series mark "recorded, nothing sampled yet" and must
	// keep the version-3 encoding through a round trip (the fuzz target's
	// re-encode check depends on it). Counters stay absent.
	s := pureSnapshot(t, 1, 2)
	s.MeanFitness = []SeriesPoint{}
	s.Cooperation = []SeriesPoint{}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeanFitness == nil || got.Cooperation == nil {
		t.Fatal("recorded-but-empty series decoded as nil")
	}
	if got.Counters != nil {
		t.Fatalf("counters materialised without a counter block: %+v", got.Counters)
	}
	var again bytes.Buffer
	if err := Write(&again, got); err != nil {
		t.Fatal(err)
	}
	if v := again.Bytes()[4]; v != byte(VersionSeries) {
		t.Fatalf("re-encoded version = %d, want %d", v, VersionSeries)
	}
}

func TestSeriesRejectsImplausibleLength(t *testing.T) {
	s := pureSnapshot(t, 1, 2)
	s.MeanFitness = []SeriesPoint{}
	s.Cooperation = []SeriesPoint{}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Overwrite the mean-fitness series length (last 8 bytes are the two
	// u32 counts) with a value over the cap.
	data[len(data)-8] = 0xff
	data[len(data)-7] = 0xff
	data[len(data)-6] = 0xff
	data[len(data)-5] = 0x7f
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("implausible series length accepted")
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
