package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// StrongScalingSpec is a fixed-size problem whose runtime is modelled
// across processor counts (the paper's Tables VI-VII, Figures 3, 5, 7).
type StrongScalingSpec struct {
	// SSets is the population size S; every generation plays S×(S-1)
	// matches (full recompute, as the paper's timing studies do).
	SSets int
	// Memory is the strategy depth n in [1,6].
	Memory int
	// Generations is the evolution length.
	Generations int
	// PCRate is the pairwise-comparison rate (prices the point-to-point
	// fitness returns).
	PCRate float64
	// Machine supplies the communication and clock parameters.
	Machine Machine
	// Cal supplies per-game compute cost; it is rescaled to the machine's
	// clock automatically.
	Cal Calibration
}

// Validate checks the spec.
func (s StrongScalingSpec) Validate() error {
	if s.SSets < 2 {
		return fmt.Errorf("perfmodel: SSets %d < 2", s.SSets)
	}
	if s.Memory < 1 || s.Memory > 6 {
		return fmt.Errorf("perfmodel: memory %d out of [1,6]", s.Memory)
	}
	if s.Generations < 1 {
		return fmt.Errorf("perfmodel: generations %d < 1", s.Generations)
	}
	if s.PCRate < 0 || s.PCRate > 1 {
		return fmt.Errorf("perfmodel: PC rate %v out of [0,1]", s.PCRate)
	}
	return s.Cal.Validate()
}

// maxGamesPerWorker is the per-generation match count of the busiest
// worker: ceil(S / workers) rows × (S-1) opponents. Load imbalance from the
// ceiling is the model's (and the engine's) source of sawtooth speedup.
func maxGamesPerWorker(ssets, procs int) float64 {
	workers := procs - 1
	if workers < 1 {
		workers = 1
	}
	rows := (ssets + workers - 1) / workers
	return float64(rows) * float64(ssets-1)
}

// commPerGeneration prices one generation's communication on the machine:
// two collective broadcasts (selection announcement and strategy update)
// down the collective tree, plus — at the PC rate — two point-to-point
// fitness returns across the torus.
func commPerGeneration(m Machine, procs int, memory int, pcRate float64) float64 {
	depth := float64(topology.TreeDepth(procs))
	// Selection bcast: 24 bytes. Update bcast: header + (rarely) a strategy
	// table; price the header plus the expected mutation payload.
	states := float64(int64(1) << uint(2*memory))
	updateBytes := 48 + 0.05*states/8
	bcast := func(bytes float64) float64 {
		return depth*m.TreeLatencyPerLevel + m.MsgOverhead + bytes/m.LinkBandwidth
	}
	total := bcast(24) + bcast(updateBytes)
	// Fitness returns over the torus at the PC rate: two 8-byte messages
	// across the mean hop distance of a balanced partition.
	tor := topology.BalancedShape(procs)
	p2p := m.MsgOverhead + tor.MeanHops()*m.LinkLatency + 8/m.LinkBandwidth
	total += pcRate * 2 * p2p
	return total
}

// Runtime returns the modelled wall-clock seconds on procs processors
// (procs >= 2: one Nature Agent plus workers).
func (s StrongScalingSpec) Runtime(procs int) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if procs < 2 {
		return 0, fmt.Errorf("perfmodel: procs %d < 2", procs)
	}
	cal := s.Cal.Scaled(s.Machine)
	compute := maxGamesPerWorker(s.SSets, procs) * cal.GameSeconds[s.Memory]
	comm := commPerGeneration(s.Machine, procs, s.Memory, s.PCRate)
	t := float64(s.Generations) * (compute + comm)
	return t * topology.MappingPenalty(procs), nil
}

// WeakScalingSpec grows the problem with the machine: each processor keeps
// a fixed number of SSets whose hosted agents play a fixed number of
// matches per generation (the paper's Fig. 6 construction, 4,096 SSets per
// processor, which by design holds per-processor game work constant).
type WeakScalingSpec struct {
	// SSetsPerProc is the per-processor SSet load (paper: 4,096).
	SSetsPerProc int
	// GamesPerSSet is the per-generation matches each hosted SSet's local
	// agents play (paper: one per agent hosted here).
	GamesPerSSet int
	// Memory, Generations, PCRate, Machine, Cal as in StrongScalingSpec.
	Memory      int
	Generations int
	PCRate      float64
	Machine     Machine
	Cal         Calibration
}

// Validate checks the spec.
func (w WeakScalingSpec) Validate() error {
	if w.SSetsPerProc < 1 {
		return fmt.Errorf("perfmodel: SSets/proc %d < 1", w.SSetsPerProc)
	}
	if w.GamesPerSSet < 1 {
		return fmt.Errorf("perfmodel: games/SSet %d < 1", w.GamesPerSSet)
	}
	if w.Memory < 1 || w.Memory > 6 {
		return fmt.Errorf("perfmodel: memory %d out of [1,6]", w.Memory)
	}
	if w.Generations < 1 {
		return fmt.Errorf("perfmodel: generations %d < 1", w.Generations)
	}
	if w.PCRate < 0 || w.PCRate > 1 {
		return fmt.Errorf("perfmodel: PC rate %v out of [0,1]", w.PCRate)
	}
	return w.Cal.Validate()
}

// Runtime returns the modelled wall-clock seconds on procs processors. The
// compute term is constant by construction; the communication term grows
// only logarithmically (the ≤1 s drift the paper reports across 1,024 to
// 262,144 processors).
func (w WeakScalingSpec) Runtime(procs int) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if procs < 2 {
		return 0, fmt.Errorf("perfmodel: procs %d < 2", procs)
	}
	cal := w.Cal.Scaled(w.Machine)
	compute := float64(w.SSetsPerProc) * float64(w.GamesPerSSet) * cal.GameSeconds[w.Memory]
	comm := commPerGeneration(w.Machine, procs, w.Memory, w.PCRate)
	t := float64(w.Generations) * (compute + comm)
	return t * topology.MappingPenalty(procs), nil
}

// TotalSSets returns the population the weak-scaled run reaches at procs
// processors (the paper's 1,073,741,824 SSets at 262,144 procs).
func (w WeakScalingSpec) TotalSSets(procs int) uint64 {
	return uint64(w.SSetsPerProc) * uint64(procs)
}

// TotalAgents returns the agent population with the paper's agents-per-SSet
// = total-SSets convention, the O(10^18) headline number.
func (w WeakScalingSpec) TotalAgents(procs int) float64 {
	s := float64(w.TotalSSets(procs))
	return s * s
}

// Speedup returns t(baseProcs)/t(procs) given the two runtimes.
func Speedup(baseTime, t float64) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	return baseTime / t
}

// Efficiency returns the parallel efficiency of scaling from baseProcs to
// procs: speedup divided by the ideal procs/baseProcs.
func Efficiency(baseProcs int, baseTime float64, procs int, t float64) float64 {
	if procs <= 0 || baseProcs <= 0 || t <= 0 {
		return 0
	}
	return (baseTime / t) / (float64(procs) / float64(baseProcs))
}

// WeakEfficiency returns baseTime/t, the weak-scaling efficiency (ideal
// weak scaling keeps runtime constant).
func WeakEfficiency(baseTime, t float64) float64 {
	if t <= 0 {
		return 0
	}
	return baseTime / t
}
