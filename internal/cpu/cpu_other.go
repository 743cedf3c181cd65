//go:build !amd64

package cpu

// Probe reports no vector extension: the kernels exist only on amd64.
func Probe() (avx, avx512 bool) { return false, false }
