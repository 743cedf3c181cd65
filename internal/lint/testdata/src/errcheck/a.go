// Fixtures for mpierrcheck: discarded results of mpi communication
// calls must be flagged; checked, propagated, or annotated results must
// not.
package errcheck

import "fixtures/mpi"

const tagData = 7

func bad(c *mpi.Comm, w *mpi.World) {
	c.Barrier()                                   // want `result of mpi\.Comm\.Barrier discarded`
	c.Send(1, tagData, "x")                       // want `result of mpi\.Comm\.Send discarded`
	c.Bcast(0, nil)                               // want `result of mpi\.Comm\.Bcast discarded`
	c.Gather(0, nil)                              // want `result of mpi\.Comm\.Gather discarded`
	w.Run(func(c *mpi.Comm) error { return nil }) // want `result of mpi\.World\.Run discarded`

	_ = c.Barrier()              // want `error result of mpi\.Comm\.Barrier assigned to _`
	msg, _ := c.Recv(0, tagData) // want `error result of mpi\.Comm\.Recv assigned to _`
	_ = msg

	go c.Barrier()    // want `go statement discards the result of mpi\.Comm\.Barrier`
	defer c.Barrier() // want `defer statement discards the result of mpi\.Comm\.Barrier`
}

func good(c *mpi.Comm, w *mpi.World) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	v, err := c.Bcast(0, nil)
	if err != nil {
		return err
	}
	_ = v // discarding the payload is fine; only the error carries the signal
	if _, err := c.Recv(0, tagData); err != nil {
		return err
	}
	parts, err := c.Gather(0, nil)
	if err != nil || len(parts) == 0 {
		return err
	}
	return c.Send(1, tagData, "x")
}

func annotated(c *mpi.Comm) {
	// Best-effort drain on the shutdown path: peers may already be gone.
	c.Barrier() //egdlint:allow mpierrcheck best-effort barrier on shutdown, peers may be gone
}
