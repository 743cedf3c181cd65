//go:build !amd64

package analysis

// hasAVX is false: the vector step exists only on amd64.
func hasAVX() bool { return false }

// stepAVX is never called where hasAVX is false.
func stepAVX(next, cur []float64, pr [][4]float64) {
	panic("analysis: no vector step on this architecture")
}
