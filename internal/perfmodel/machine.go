// Package perfmodel projects the simulation's computation and communication
// counts onto Blue Gene-class machines, regenerating the paper's scaling
// tables and figures (Tables VI-VIII, Figures 3-7) at processor counts far
// beyond what one host can run.
//
// The model is deliberately simple and auditable:
//
//	T(P) = generations × ( maxGamesPerWorker(P) × gameSeconds
//	                       + commPerGeneration(P) ) × mappingPenalty(P)
//
// Computation follows the engine's actual work decomposition (block
// distribution of SSet rows over P-1 workers, the Nature Agent on rank 0);
// communication follows the engine's actual per-generation pattern (two
// collective broadcasts, rate-limited point-to-point fitness returns) priced
// on the machine's collective-tree and torus parameters. gameSeconds comes
// from a Calibration: either measured on the host and rescaled by clock
// ratio, or the constants fitted to the paper's own Table VI.
package perfmodel

// Machine describes the hardware the model prices communication and clock
// scaling against.
type Machine struct {
	// Name identifies the machine in reports.
	Name string
	// ClockHz is the core clock (BG/L 700 MHz, BG/P 850 MHz).
	ClockHz float64
	// LinkLatency is the per-hop torus latency in seconds.
	LinkLatency float64
	// LinkBandwidth is the torus link bandwidth in bytes/second.
	LinkBandwidth float64
	// TreeLatencyPerLevel is the collective-network per-level latency in
	// seconds.
	TreeLatencyPerLevel float64
	// MsgOverhead is the per-message software overhead in seconds.
	MsgOverhead float64
}

// BlueGeneL returns the Blue Gene/L description used for the paper's
// validation and small-scale studies (§VI-A/B).
func BlueGeneL() Machine {
	return Machine{
		Name:                "BlueGene/L",
		ClockHz:             700e6,
		LinkLatency:         100e-9,
		LinkBandwidth:       175e6,
		TreeLatencyPerLevel: 1.0e-6,
		MsgOverhead:         3.0e-6,
	}
}

// BlueGeneP returns the Blue Gene/P (Jugene) description used for the
// paper's large-scale studies (§VI-C).
func BlueGeneP() Machine {
	return Machine{
		Name:                "BlueGene/P",
		ClockHz:             850e6,
		LinkLatency:         64e-9,
		LinkBandwidth:       425e6,
		TreeLatencyPerLevel: 0.8e-6,
		MsgOverhead:         2.5e-6,
	}
}
