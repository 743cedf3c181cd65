//go:build !amd64

package game

import (
	"repro/internal/rng"
	"repro/internal/strategy"
)

// playMixed16s is never called: cpu.AVX512 is false off amd64.
func playMixed16s(rules Rules, a, b []*strategy.Mixed, src []rng.Source, out []Result) {
	panic("game: no batch kernel on this architecture")
}
