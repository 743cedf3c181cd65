// Package cpu reports the x86 vector extensions the repository's assembly
// kernels need, probed once at init with CPUID and XGETBV: AVX for
// analysis.Solver's step, AVX-512 F and DQ for game.PlayMixedBatch. Off
// amd64 both are false and every kernel's Go path runs.
package cpu

// AVX and AVX512 select the assembly kernels: AVX the solver's vector
// step, AVX512 (F and DQ) the batch of eight sampled mixed matches. Each
// is set once, at init, from Probe, and changed only by tests that compare
// a kernel with the Go path it replaces; both paths give the same bits.
var AVX, AVX512 = Probe()
