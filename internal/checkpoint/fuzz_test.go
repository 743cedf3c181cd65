package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// FuzzRead hardens the checkpoint decoder: arbitrary bytes must never
// panic, and any stream it accepts must re-encode to an equivalent
// snapshot whose encoding is a fixed point of Write∘Read.
func FuzzRead(f *testing.F) {
	// Seed with valid streams of both strategy kinds. Each seed gets its own
	// buffer: F.Add keeps the slice it is given.
	seed := func(s *Snapshot) {
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	sp := strategy.NewSpace(2)
	src := rng.New(1)
	seed(&Snapshot{Generation: 5, Seed: 9, Memory: 2,
		Strategies: []strategy.Strategy{strategy.RandomPure(sp, src), strategy.WSLS(sp)},
		Fitness:    []float64{1.5, 2.5}})
	seed(&Snapshot{Generation: 1, Memory: 1,
		Strategies: []strategy.Strategy{strategy.GTFT(strategy.NewSpace(1), 0.3)}})
	seed(&Snapshot{Generation: 8, Seed: 3, Memory: 1,
		Strategies:  []strategy.Strategy{strategy.WSLS(strategy.NewSpace(1))},
		Counters:    &RunCounters{GamesPlayed: 42},
		MeanFitness: []stats.Point{{Generation: 0, Value: 2.0}, {Generation: 4, Value: 2.25}},
		Cooperation: []stats.Point{{Generation: 0, Value: 0.5}}})
	// The shape the engines write at the end of a run that keeps cells
	// across generations: every block, one series still empty.
	seed(&Snapshot{Generation: 1, Seed: 7, Memory: 2,
		Strategies:  []strategy.Strategy{strategy.WSLS(sp), strategy.RandomPure(sp, src)},
		Fitness:     []float64{2.0, 1.25},
		Counters:    &RunCounters{GamesPlayed: 2, PCEvents: 1, Mutations: 1},
		MeanFitness: []stats.Point{{Generation: 0, Value: 1.625}},
		Played:      []uint64{0, 1}})
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x44, 0x47, 0x45, byte(Version), 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must be internally valid and round-trip.
		if err := snap.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := Write(&out, snap); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		var twice bytes.Buffer
		if err := Write(&twice, again); err != nil || !bytes.Equal(twice.Bytes(), out.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point (%v)", err)
		}
		if len(again.Strategies) != len(snap.Strategies) || again.Generation != snap.Generation {
			t.Fatal("round trip changed the snapshot")
		}
		for i := range snap.Strategies {
			if !again.Strategies[i].Equal(snap.Strategies[i]) {
				t.Fatalf("strategy %d changed in round trip", i)
			}
		}
	})
}
