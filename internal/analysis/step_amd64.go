package analysis

// hasAVX reports whether the CPU has AVX and the OS saves its registers
// (step_amd64.s).
func hasAVX() bool

// stepAVX writes one gather step of cur into next, four states per vector
// instruction (step_amd64.s). It is bit-identical to Solver.gather.
//
//go:noescape
func stepAVX(next, cur []float64, pr [][4]float64)
