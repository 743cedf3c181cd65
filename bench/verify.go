package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/sim"
	"repro/internal/strategy"
)

// hashResult condenses everything a run's trajectory determines — counters,
// final fitness bit patterns, and every final strategy's table — into one
// SHA-256, so two runs agree exactly when their hashes do.
func hashResult(res *sim.Result) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	c := res.Counters
	for _, v := range []uint64{c.GamesPlayed, c.PCEvents, c.Adoptions, c.Mutations} {
		put(v)
	}
	put(uint64(len(res.FinalFitness)))
	for _, f := range res.FinalFitness {
		put(math.Float64bits(f))
	}
	put(uint64(len(res.Final)))
	for _, s := range res.Final {
		switch v := s.(type) {
		case *strategy.Pure:
			put(1)
			moves := make([]byte, v.Space().NumStates())
			for state := range moves {
				moves[state] = byte(v.MoveAt(uint32(state)))
			}
			h.Write(moves)
		case *strategy.Mixed:
			put(2)
			for _, p := range v.Probs() {
				put(math.Float64bits(p))
			}
		default:
			panic(fmt.Sprintf("bench: unhashable strategy type %T", s))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFile is the committed table of result hashes at the default seed,
// keyed by workload name ("name@quick" for the -quick sizes).
const goldenFile = "golden.json"

func goldenPath() string { return filepath.Join(benchDir, goldenFile) }

func loadGolden() (map[string]string, error) {
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		return nil, err
	}
	g := map[string]string{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(), err)
	}
	return g, nil
}

// updateGolden merges entries into the golden file, keys sorted.
func updateGolden(entries map[string]string) error {
	g, err := loadGolden()
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if g == nil {
		g = map[string]string{}
	}
	for k, v := range entries {
		g[k] = v
	}
	// MarshalIndent writes map keys sorted, so the file diffs cleanly.
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(goldenPath(), out, 0o644)
}
