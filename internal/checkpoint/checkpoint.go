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
	"repro/internal/stats"
	"repro/internal/strategy"
)

// Magic and Version identify the stream format. There is one layout: the
// header, then the strategies, the fitness, the counters, both series and
// the played generations, each block but the counters a little-endian
// uint32 count followed by that many entries. Read refuses every other
// version.
const (
	Magic   uint32 = 0x45474431 // "EGD1"
	Version uint16 = 5
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
	// reports totals identical to an uninterrupted one. Nil is written as
	// zeros and read back as them.
	Counters *RunCounters
	// MeanFitness and Cooperation carry the sampled series up to the
	// snapshot generation, which makes a snapshot the complete record of the
	// run so far: sim.Config.ResumeFrom restores them and the resumed run
	// returns the uninterrupted run's series.
	MeanFitness []stats.Point
	Cooperation []stats.Point
	// Played holds, per strategy, the generation whose random streams the
	// SSet's payoff cells were last played from. The engines record it only
	// for a run that keeps noisy or mixed cells across generations, where a
	// cell's value depends on that generation, so the resumed run plays each
	// again from its own; empty means not recorded.
	Played []uint64
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
	if len(s.Played) != 0 && len(s.Played) != len(s.Strategies) {
		return fmt.Errorf("checkpoint: %d played generations for %d strategies", len(s.Played), len(s.Strategies))
	}
	// Read refuses a longer series: Write must not produce one.
	if n := max(len(s.MeanFitness), len(s.Cooperation)); n > maxSeriesPoints {
		return fmt.Errorf("checkpoint: %d series points, over the %d Read accepts", n, maxSeriesPoints)
	}
	return nil
}

// Write encodes the snapshot to w.
func Write(w io.Writer, s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	le := binary.LittleEndian
	bw := bufio.NewWriter(w)
	// b carries the header, then one strategy record at a time, then the
	// rest, which it is sized for (with 78 bytes of header, counts and
	// counters).
	b := make([]byte, 0, 78+8*len(s.Fitness)+16*(len(s.MeanFitness)+len(s.Cooperation))+8*len(s.Played))
	b = le.AppendUint32(b, Magic)
	b = le.AppendUint16(b, Version)
	b = append(b, byte(s.Memory), 0) // reserved
	b = le.AppendUint64(b, s.Generation)
	b = le.AppendUint64(b, s.Seed)
	b = le.AppendUint32(b, uint32(len(s.Strategies)))
	for _, st := range s.Strategies {
		bw.Write(b)
		b = appendStrategy(b[:0], st)
	}
	b = le.AppendUint32(b, uint32(len(s.Fitness)))
	for _, f := range s.Fitness {
		b = le.AppendUint64(b, math.Float64bits(f))
	}
	var ctr RunCounters
	if s.Counters != nil {
		ctr = *s.Counters
	}
	for _, v := range []uint64{ctr.GamesPlayed, ctr.PCEvents, ctr.Adoptions, ctr.Mutations} {
		b = le.AppendUint64(b, v)
	}
	for _, series := range [][]stats.Point{s.MeanFitness, s.Cooperation} {
		b = le.AppendUint32(b, uint32(len(series)))
		for _, p := range series {
			b = le.AppendUint64(le.AppendUint64(b, uint64(p.Generation)), math.Float64bits(p.Value))
		}
	}
	b = le.AppendUint32(b, uint32(len(s.Played)))
	for _, g := range s.Played {
		b = le.AppendUint64(b, g)
	}
	bw.Write(b) // a write error sticks to bw and Flush reports it
	return bw.Flush()
}

// appendStrategy appends one strategy: a kind byte, a little-endian uint32
// length, and the body — the response bitset's binary form (length in
// bytes) for a pure strategy, one float64 per state (length in states) for
// a mixed one. There is no third form: it panics on any other type, which
// Snapshot.Validate reports as an error first.
func appendStrategy(b []byte, st strategy.Strategy) []byte {
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

// decoder reads little-endian words off a stream and keeps the first error:
// after one, every read returns zero, so a block checks it once.
type decoder struct {
	r   *bufio.Reader
	buf [8]byte
	err error
}

func (d *decoder) next(n int) []byte {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, d.buf[:n])
	}
	if d.err != nil {
		clear(d.buf[:n])
	}
	return d.buf[:n]
}

func (d *decoder) u8() uint8   { return d.next(1)[0] }
func (d *decoder) u16() uint16 { return binary.LittleEndian.Uint16(d.next(2)) }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.next(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.next(8)) }

// readBlock reads a count and then that many entries. A count above limit is
// refused before any entry is read, and past 1 024 entries the slice grows
// as they arrive, so a count the stream does not back costs what the stream
// holds, not its claim. A zero count reads as nil.
func readBlock[T any](d *decoder, what string, limit uint32, entry func() (T, error)) ([]T, error) {
	n := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("reading %s count: %w", what, d.err)
	}
	if n > limit {
		return nil, fmt.Errorf("implausible %s count %d", what, n)
	}
	var out []T
	if n > 0 {
		out = make([]T, 0, min(n, 1<<10))
	}
	for i := range n {
		v, err := entry()
		if err == nil {
			err = d.err
		}
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", what, i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// strategy decodes one strategy of space sp written by appendStrategy. The
// length is bounded as the unsigned word it arrives as, so no platform's int
// sees an out-of-range one, and one that does not fit the space is refused
// before the body is read.
func (d *decoder) strategy(sp strategy.Space) (strategy.Strategy, error) {
	kind, n := d.u8(), d.u32()
	if d.err != nil {
		return nil, d.err
	}
	switch kind {
	case kindPure:
		if n > 1<<20 {
			return nil, fmt.Errorf("pure strategy blob of %d bytes", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(d.r, data); err != nil {
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
		if n != uint32(sp.NumStates()) {
			return nil, fmt.Errorf("mixed strategy has %d probs, want %d", n, sp.NumStates())
		}
		probs := make([]float64, n)
		for j := range probs {
			probs[j] = math.Float64frombits(d.u64())
			if math.IsNaN(probs[j]) || probs[j] < 0 || probs[j] > 1 {
				return nil, fmt.Errorf("mixed strategy prob %d out of range", j)
			}
		}
		return strategy.MixedFromProbs(sp, probs), d.err
	}
	return nil, fmt.Errorf("unknown strategy kind %d", kind)
}

// Read decodes a snapshot from r.
func Read(r io.Reader) (*Snapshot, error) {
	s, err := (&decoder{r: bufio.NewReader(r)}).snapshot()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (d *decoder) snapshot() (*Snapshot, error) {
	magic, version, memory, _ := d.u32(), d.u16(), d.u8(), d.u8()
	s := &Snapshot{Memory: int(memory), Generation: d.u64(), Seed: d.u64()}
	switch {
	case d.err != nil:
		return nil, fmt.Errorf("reading header: %w", d.err)
	case magic != Magic:
		return nil, fmt.Errorf("bad magic %#x", magic)
	case version != Version:
		return nil, fmt.Errorf("unsupported version %d", version)
	case s.Memory < 1 || s.Memory > strategy.MaxMemory:
		return nil, fmt.Errorf("memory %d out of range", s.Memory)
	case s.Generation > math.MaxInt: // every reader converts it to an int
		return nil, fmt.Errorf("generation %d overflows int", s.Generation)
	}
	sp := strategy.NewSpace(s.Memory)
	var err error
	if s.Strategies, err = readBlock(d, "strategy", 1<<28, func() (strategy.Strategy, error) { return d.strategy(sp) }); err != nil {
		return nil, err
	}
	if len(s.Strategies) == 0 {
		return nil, errors.New("no strategies")
	}
	count := uint32(len(s.Strategies))
	if s.Fitness, err = readBlock(d, "fitness", count, func() (float64, error) { return math.Float64frombits(d.u64()), nil }); err != nil {
		return nil, err
	}
	s.Counters = &RunCounters{GamesPlayed: d.u64(), PCEvents: d.u64(), Adoptions: d.u64(), Mutations: d.u64()}
	if d.err != nil {
		return nil, fmt.Errorf("reading counters: %w", d.err)
	}
	point := func() (stats.Point, error) {
		gen, v := d.u64(), math.Float64frombits(d.u64())
		if gen > math.MaxInt {
			return stats.Point{}, fmt.Errorf("generation %d overflows int", gen)
		}
		return stats.Point{Generation: int(gen), Value: v}, nil
	}
	if s.MeanFitness, err = readBlock(d, "mean fitness point", maxSeriesPoints, point); err != nil {
		return nil, err
	}
	if s.Cooperation, err = readBlock(d, "cooperation point", maxSeriesPoints, point); err != nil {
		return nil, err
	}
	s.Played, err = readBlock(d, "played generation", count, func() (uint64, error) { return d.u64(), nil })
	return s, err
}
