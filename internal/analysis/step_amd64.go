package analysis

// stepAVX writes one gather step of cur into next, four states per vector
// instruction (step_amd64.s). It is bit-identical to Solver.gather.
//
//go:noescape
func stepAVX(next, cur []float64, pr [][4]float64)
