//go:build !amd64

package analysis

// stepAVX is never called: cpu.AVX is false off amd64.
func stepAVX(next, cur []float64, pr [][4]float64) {
	panic("analysis: no vector step on this architecture")
}
