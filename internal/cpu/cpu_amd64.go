package cpu

// Probe reports whether the CPU has AVX, and AVX-512 F and DQ, with the
// OS saving the registers each uses (cpu_amd64.s).
func Probe() (avx, avx512 bool)
