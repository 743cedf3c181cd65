//go:build !amd64

package game

import (
	"repro/internal/rng"
	"repro/internal/strategy"
)

// playMixed8s is never called: cpu.AVX512 is false off amd64.
func playMixed8s(rules Rules, a, b []*strategy.Mixed, src []rng.Source, out []Result) int {
	panic("game: no batch kernel on this architecture")
}
