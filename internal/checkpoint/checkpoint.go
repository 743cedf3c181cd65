// Package checkpoint serialises simulation state — the record-keeping role
// the paper assigns to the Nature Agent ("handles all file I/O to record
// the global variables across generations"). A Snapshot is the one record
// of a run at a generation boundary: the generation number and every SSet's
// strategy, plus the cumulative counters and the sampled series, so a run
// resumed from it returns what the uninterrupted run would. The binary
// codec is self-describing, versioned, and stdlib-only.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/strategy"
)

// Magic and version identify the stream format. Version 2 appends the run
// counters after the fitness block; version 3 makes the counters block
// optional behind a presence byte and appends the sampled series; version 4
// appends one played generation per strategy. Write emits the lowest
// version that can represent the snapshot, so counter-less snapshots stay
// byte-identical to version 1 streams, series-less ones to version 2
// streams, snapshots without played generations to version 3 streams, and
// Read accepts all four.
const (
	Magic           uint32 = 0x45474431 // "EGD1"
	Version         uint16 = 1
	VersionCounters uint16 = 2
	VersionSeries   uint16 = 3
	VersionPlayed   uint16 = 4
)

// maxSeriesPoints bounds a decoded series block (a run samples ~1000
// points by default; the cap rejects implausible streams before the
// decoder commits a large allocation to them).
const maxSeriesPoints = 1 << 20

// Strategy kind tags in the stream.
const (
	kindPure  uint8 = 1
	kindMixed uint8 = 2
)

// Snapshot is a point-in-time capture of a run.
type Snapshot struct {
	// Generation is the number of completed generations.
	Generation uint64
	// Seed is the run's master seed (for provenance).
	Seed uint64
	// Memory is the strategy depth.
	Memory int
	// Strategies holds every SSet's strategy.
	Strategies []strategy.Strategy
	// Fitness optionally holds every SSet's fitness at the snapshot
	// (empty means not recorded).
	Fitness []float64
	// Counters holds the run's cumulative event counters, so a resumed run
	// reports totals identical to an uninterrupted one. Nil means not
	// recorded (and the snapshot encodes as version 1); every snapshot the
	// engines write carries them.
	Counters *RunCounters
	// MeanFitness and Cooperation carry the sampled series up to the
	// snapshot generation, which makes a snapshot the complete record of the
	// run so far: sim.Config.ResumeFrom restores them and the resumed run
	// returns the uninterrupted run's series. Every snapshot the engines
	// write carries both. Nil means not recorded (and the snapshot encodes
	// as version <= 2); non-nil but empty is recorded and survives a round
	// trip.
	MeanFitness []SeriesPoint
	Cooperation []SeriesPoint
	// Played holds, per strategy, the generation whose random streams the
	// SSet's payoff cells were last played from. The engines record it only
	// for a run that keeps noisy or mixed cells across generations, where a
	// cell's value depends on that generation, so the resumed run plays each
	// again from its own. Nil means not recorded (and the snapshot encodes
	// as version <= 3); a recorded snapshot always carries the series block.
	Played []uint64
}

// SeriesPoint is one retained sample of a per-generation series.
type SeriesPoint struct {
	Generation uint64
	Value      float64
}

// RunCounters tallies the work a run performed up to the snapshot
// generation (sim.Counters is an alias of it).
type RunCounters struct {
	GamesPlayed uint64 // two-player IPD matches executed
	PCEvents    uint64 // pairwise-comparison events fired
	Adoptions   uint64 // PC events in which the learner adopted
	Mutations   uint64 // mutation events fired
}

// Validate checks internal consistency.
func (s *Snapshot) Validate() error {
	if s.Memory < 1 || s.Memory > strategy.MaxMemory {
		return fmt.Errorf("checkpoint: memory %d out of range", s.Memory)
	}
	if len(s.Strategies) == 0 {
		return errors.New("checkpoint: no strategies")
	}
	sp := strategy.NewSpace(s.Memory)
	for i, st := range s.Strategies {
		if st == nil {
			return fmt.Errorf("checkpoint: nil strategy %d", i)
		}
		if st.Space() != sp {
			return fmt.Errorf("checkpoint: strategy %d space mismatch", i)
		}
		switch st.(type) {
		case *strategy.Pure, *strategy.Mixed:
		default:
			return fmt.Errorf("checkpoint: unsupported strategy type %T", st)
		}
	}
	if len(s.Fitness) != 0 && len(s.Fitness) != len(s.Strategies) {
		return fmt.Errorf("checkpoint: %d fitness values for %d strategies", len(s.Fitness), len(s.Strategies))
	}
	if s.Played != nil && len(s.Played) != len(s.Strategies) {
		return fmt.Errorf("checkpoint: %d played generations for %d strategies", len(s.Played), len(s.Strategies))
	}
	return nil
}

// Write encodes the snapshot to w.
func Write(w io.Writer, s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	writeU32 := func(v uint32) { _ = binary.Write(bw, binary.LittleEndian, v) }
	writeU64 := func(v uint64) { _ = binary.Write(bw, binary.LittleEndian, v) }
	writeU32(Magic)
	version := Version
	if s.Counters != nil {
		version = VersionCounters
	}
	if s.MeanFitness != nil || s.Cooperation != nil {
		version = VersionSeries
	}
	if s.Played != nil {
		version = VersionPlayed
	}
	_ = binary.Write(bw, binary.LittleEndian, version)
	_ = bw.WriteByte(byte(s.Memory))
	_ = bw.WriteByte(0) // reserved
	writeU64(s.Generation)
	writeU64(s.Seed)
	writeU32(uint32(len(s.Strategies)))
	hasFitness := uint8(0)
	if len(s.Fitness) > 0 {
		hasFitness = 1
	}
	_ = bw.WriteByte(hasFitness)
	var record []byte // reused across strategies
	for _, st := range s.Strategies {
		record = AppendStrategy(record[:0], st)
		if _, err := bw.Write(record); err != nil {
			return err
		}
	}
	if hasFitness == 1 {
		for _, f := range s.Fitness {
			writeU64(math.Float64bits(f))
		}
	}
	if version >= VersionSeries {
		hasCounters := uint8(0)
		if s.Counters != nil {
			hasCounters = 1
		}
		_ = bw.WriteByte(hasCounters)
	}
	if s.Counters != nil {
		writeU64(s.Counters.GamesPlayed)
		writeU64(s.Counters.PCEvents)
		writeU64(s.Counters.Adoptions)
		writeU64(s.Counters.Mutations)
	}
	if version >= VersionSeries {
		for _, series := range [][]SeriesPoint{s.MeanFitness, s.Cooperation} {
			writeU32(uint32(len(series)))
			for _, p := range series {
				writeU64(p.Generation)
				writeU64(math.Float64bits(p.Value))
			}
		}
	}
	for _, g := range s.Played {
		writeU64(g)
	}
	return bw.Flush()
}

// AppendStrategy appends one strategy the way the snapshot stream and the
// parallel engine's messages both carry it: a kind byte, a little-endian
// uint32 length, and the body — the response bitset's binary form (length in
// bytes) for a pure strategy, one float64 per state (length in states) for
// a mixed one. There is no third form: it panics on any other type, which
// Snapshot.Validate reports as an error first.
func AppendStrategy(b []byte, st strategy.Strategy) []byte {
	switch v := st.(type) {
	case *strategy.Pure:
		bits, _ := v.Bits().MarshalBinary()
		return append(binary.LittleEndian.AppendUint32(append(b, kindPure), uint32(len(bits))), bits...)
	case *strategy.Mixed:
		b = binary.LittleEndian.AppendUint32(append(slices.Grow(b, 5+8*len(v.Probs())), kindMixed), uint32(len(v.Probs())))
		for _, p := range v.Probs() {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
		}
		return b
	}
	panic(fmt.Sprintf("checkpoint: unsupported strategy type %T", st))
}

// ReadStrategy decodes one strategy of space sp written by AppendStrategy. A
// length that does not fit the space is refused before the body is read.
func ReadStrategy(r io.Reader, sp strategy.Space) (strategy.Strategy, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(head[1:]))
	switch head[0] {
	case kindPure:
		if n > 1<<20 {
			return nil, fmt.Errorf("pure strategy blob of %d bytes", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		var b bitset.Bitset
		if err := b.UnmarshalBinary(data); err != nil {
			return nil, err
		}
		if b.Len() != sp.NumStates() {
			return nil, fmt.Errorf("pure strategy has %d states, want %d", b.Len(), sp.NumStates())
		}
		return strategy.PureFromBits(sp, &b), nil
	case kindMixed:
		if n != sp.NumStates() {
			return nil, fmt.Errorf("mixed strategy has %d probs, want %d", n, sp.NumStates())
		}
		data := make([]byte, 8*n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		probs := make([]float64, n)
		for j := range probs {
			probs[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
			if math.IsNaN(probs[j]) || probs[j] < 0 || probs[j] > 1 {
				return nil, fmt.Errorf("mixed strategy prob %d out of range", j)
			}
		}
		return strategy.MixedFromProbs(sp, probs), nil
	}
	return nil, fmt.Errorf("unknown strategy kind %d", head[0])
}

// Read decodes a snapshot from r.
func Read(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version < Version || version > VersionPlayed {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", version)
	}
	memByte, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != nil { // reserved
		return nil, err
	}
	s := &Snapshot{Memory: int(memByte)}
	if s.Memory < 1 || s.Memory > strategy.MaxMemory {
		return nil, fmt.Errorf("checkpoint: memory %d out of range", s.Memory)
	}
	if err := binary.Read(br, binary.LittleEndian, &s.Generation); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &s.Seed); err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count == 0 || count > 1<<28 {
		return nil, fmt.Errorf("checkpoint: implausible strategy count %d", count)
	}
	hasFitness, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	sp := strategy.NewSpace(s.Memory)
	// The count is the stream's word, not yet its data: the slice grows as
	// strategies arrive, so a header claiming 2^28 of them costs what the
	// stream holds before it ends, not a 4 GiB make up front.
	s.Strategies = make([]strategy.Strategy, 0, min(count, 1<<10))
	for i := uint32(0); i < count; i++ {
		st, err := ReadStrategy(br, sp)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: strategy %d: %w", i, err)
		}
		s.Strategies = append(s.Strategies, st)
	}
	if hasFitness == 1 {
		s.Fitness = make([]float64, count)
		for i := range s.Fitness {
			var bits64 uint64
			if err := binary.Read(br, binary.LittleEndian, &bits64); err != nil {
				return nil, err
			}
			s.Fitness[i] = math.Float64frombits(bits64)
		}
	}
	hasCounters := version == VersionCounters
	if version >= VersionSeries {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reading counters flag: %w", err)
		}
		if b > 1 {
			return nil, fmt.Errorf("checkpoint: bad counters flag %d", b)
		}
		hasCounters = b == 1
	}
	if hasCounters {
		s.Counters = &RunCounters{}
		for _, field := range []*uint64{
			&s.Counters.GamesPlayed, &s.Counters.PCEvents,
			&s.Counters.Adoptions, &s.Counters.Mutations,
		} {
			if err := binary.Read(br, binary.LittleEndian, field); err != nil {
				return nil, fmt.Errorf("checkpoint: reading counters: %w", err)
			}
		}
	}
	if version >= VersionSeries {
		for _, dst := range []*[]SeriesPoint{&s.MeanFitness, &s.Cooperation} {
			var n uint32
			if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
				return nil, fmt.Errorf("checkpoint: reading series length: %w", err)
			}
			if n > maxSeriesPoints {
				return nil, fmt.Errorf("checkpoint: implausible series length %d", n)
			}
			// Non-nil even when empty, so the round trip keeps version 3.
			pts := make([]SeriesPoint, n)
			for i := range pts {
				var bits64 uint64
				if err := binary.Read(br, binary.LittleEndian, &pts[i].Generation); err != nil {
					return nil, err
				}
				if err := binary.Read(br, binary.LittleEndian, &bits64); err != nil {
					return nil, err
				}
				pts[i].Value = math.Float64frombits(bits64)
			}
			*dst = pts
		}
	}
	if version >= VersionPlayed {
		// Grown as values arrive, as the strategies are.
		s.Played = make([]uint64, 0, min(count, 1<<10))
		for range count {
			var g uint64
			if err := binary.Read(br, binary.LittleEndian, &g); err != nil {
				return nil, fmt.Errorf("checkpoint: reading played generations: %w", err)
			}
			s.Played = append(s.Played, g)
		}
	}
	return s, nil
}
