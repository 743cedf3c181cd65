package game

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// PlayMixedBatch plays len(out) matches between two mixed strategies:
// out[k] = Play(rules, a[k], b[k], &src[k]) for every k, with src[k] left
// where that Play leaves it. Where the CPU has AVX-512 F and DQ
// (cpu.AVX512) the matches run in one assembly kernel, sixteen a call, a
// match to a 64-bit lane, making each lane's draws in playMixed's order
// and adding the same Score values in the same round order, so every
// Result and every stream's next draw is bit-identical
// (TestPlayMixedBatchMatchesInterfaceLoop). A last group of one or two
// matches, and on any other CPU every match, goes through playMixed. It
// panics, as Play does, if a match's two strategies do not share a space,
// and if the slices differ in length.
func PlayMixedBatch(rules Rules, a, b []*strategy.Mixed, src []rng.Source, out []Result) {
	if len(a) != len(out) || len(b) != len(out) || len(src) != len(out) {
		panic(fmt.Sprintf("game: a batch of %d results for %d, %d players and %d streams", len(out), len(a), len(b), len(src)))
	}
	for k := range out {
		if sa, sb := a[k].Space(), b[k].Space(); sa != sb {
			panic(fmt.Sprintf("game: mismatched spaces (memory %d vs %d)", sa.Memory(), sb.Memory()))
		}
	}
	if cpu.AVX512 {
		playMixed16s(rules, a, b, src, out)
		return
	}
	for k := range out {
		out[k] = playMixed(rules, a[k], b[k], &src[k])
	}
}
