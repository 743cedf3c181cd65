// Fixtures for determinism: inside a deterministic package, wall-clock
// reads, the process-global math/rand state, and order-sensitive map
// iteration all break bit-reproducibility.
package determinism

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock in a deterministic package`
	return time.Since(start) // want `time\.Since reads the wall clock in a deterministic package`
}

func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `global rand\.Shuffle in a deterministic package`
	return rand.Intn(10)               // want `global rand\.Intn in a deterministic package`
}

// The finding names a package by its declared name, not its import path's
// last element ("v2").
func globalRandV2() int64 {
	return randv2.Int64N(10) // want `global rand\.Int64N in a deterministic package`
}

func seededRand(seed int64) float64 {
	src := rand.New(rand.NewSource(seed)) // constructors over explicit seeds are fine
	return src.Float64()
}

func mapOrderFeedsOutput(m map[string]int) {
	for k, v := range m { // want `map iteration order feeds computation in a deterministic package`
		fmt.Println(k, v)
	}
}

func mapOrderFeedsFloatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want `map iteration order feeds computation in a deterministic package`
		total += v // float accumulation order changes the rounding
	}
	return total
}

func sortedIteration(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort restores a canonical order
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return out
}

func orderInsensitive(m map[string]int) (int, bool) {
	count := 0
	found := false
	for _, v := range m {
		if v > 0 {
			count++
			found = true
		}
	}
	for k := range m {
		if len(k) == 0 {
			delete(m, k)
		}
	}
	return count, found
}

func annotated(m map[string]int) {
	// Debug dump: goes to a log humans read, not into the trajectory.
	for k := range m { //egdlint:allow determinism debug dump, output not part of the trajectory
		fmt.Println(k)
	}
}

// Integer addition commutes, but each draw from a stream pairs with the
// key map order hands it: both the sum and the count depend on the order.
func streamDrawsPairWithKeys(m map[string]int, src *rand.Rand, p float64) int {
	n := 0
	for _, v := range m { // want `map iteration order feeds computation in a deterministic package`
		n += src.Intn(v)
	}
	for range m { // want `map iteration order feeds computation in a deterministic package`
		if src.Float64() < p {
			n++
		}
	}
	for k, v := range m { // builtins and conversions call nothing order-sensitive
		if len(k) > int(uint8(v)) {
			n += len(k) + int(int32(v))
		}
	}
	return n
}
