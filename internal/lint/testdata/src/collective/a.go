// Fixtures for mpicollective: collective operations lexically inside a
// branch conditioned on Rank() are the classic SPMD deadlock.
package collective

import "fixtures/mpi"

func bad(c *mpi.Comm) error {
	if c.Rank() == 0 {
		if _, err := c.Bcast(0, "state"); err != nil { // want `collective mpi\.Comm\.Bcast inside a branch conditioned on Rank\(\)`
			return err
		}
	}
	if c.Rank() != 0 {
		return nil
	} else {
		if err := c.Barrier(); err != nil { // want `collective mpi\.Comm\.Barrier inside a branch conditioned on Rank\(\)`
			return err
		}
	}
	return nil
}

func badViaVariable(c *mpi.Comm) error {
	rank := c.Rank()
	if rank > 0 {
		_, err := c.Reduce(0, 1.0, mpi.OpSum) // want `collective mpi\.Comm\.Reduce inside a branch conditioned on Rank\(\)`
		return err
	}
	switch rank {
	case 0:
		if err := c.Barrier(); err != nil { // want `collective mpi\.Comm\.Barrier inside a branch conditioned on Rank\(\)`
			return err
		}
	}
	for i := 0; i < c.Rank(); i++ {
		if _, err := c.Gather(0, i); err != nil { // want `collective mpi\.Comm\.Gather inside a branch conditioned on Rank\(\)`
			return err
		}
	}
	return nil
}

// good: every rank reaches the same collectives in the same order;
// rank-dependent branches hold only local work and point-to-point calls.
func good(c *mpi.Comm) error {
	if _, err := c.Bcast(0, "state"); err != nil {
		return err
	}
	sum := 0.0
	if c.Rank() != 0 {
		sum = float64(c.Rank())
		if err := c.Send(0, 1, "partial"); err != nil {
			return err
		}
	}
	if _, err := c.Reduce(0, sum, mpi.OpSum); err != nil {
		return err
	}
	for gen := 0; gen < 10; gen++ { // loop bound independent of rank
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	return c.Barrier()
}

// annotated: symmetry is maintained manually across both arms.
func annotated(c *mpi.Comm) error {
	if c.Rank() == 0 {
		//egdlint:allow mpicollective workers enter the same Barrier in their own arm
		return c.Barrier()
	}
	//egdlint:allow mpicollective nature enters the same Barrier in its arm
	return c.Barrier()
}
