package sim

import "repro/internal/mpi"

// This file is the multi-process entry point of the engine: where
// RunParallel hosts every rank as a goroutine of one process, RunWorker
// hosts exactly one rank of a networked world wired by an mpi.NetTransport
// (the egdrun launcher spawns one such process per rank). The ranks and the
// world set-up are the same code (runWorld) — parRank runs unchanged over
// the wire — so a networked run follows the same trajectory, bit for bit,
// as an in-process run of the same Config.

// RunWorker executes this process's rank of a networked simulation: rank 0
// is the Nature Agent, and every rank plays a share of the games a
// generation misses, exactly as in RunParallel. The transport must be freshly created and not yet
// started; RunWorker installs the Config's world options (metrics, fault
// plan, receive deadline), wires the mesh, and runs the hosted
// rank to completion.
//
// On the Nature process the returned Result is the run's result, assembled
// as in RunParallel except that communication and transport metrics are
// this process's view of the wire (per-process accounting; see
// docs/TRANSPORT.md). Worker processes return (nil, nil) on success.
func RunWorker(cfg Config, t *mpi.NetTransport) (*Result, error) {
	if err := checkParallel(&cfg, t.Size()); err != nil {
		return nil, err
	}
	world := mpi.NewNetWorld(t)
	return runWorld(cfg, world, 1, func(body func(*mpi.Comm) error) error {
		if err := t.Start(); err != nil {
			return err
		}
		return world.RunLocal(body)
	})
}
