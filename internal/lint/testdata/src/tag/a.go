// Fixtures for mpitag: point-to-point tags must be named constants in
// the user range [0, 1<<30); bare literals collide silently.
package tag

import (
	"time"

	"fixtures/mpi"
)

const (
	tagFitness  = 1
	tagRows     = 2
	tagBase     = 100
	tagDerived  = tagBase + 1
	tagReserved = 1 << 30 // collides with the collectives' internal tags
	tagNegative = -3
)

func bad(c *mpi.Comm) error {
	if err := c.Send(1, 7, "x"); err != nil { // want `magic tag literal in Send`
		return err
	}
	if _, err := c.Recv(0, 2); err != nil { // want `magic tag literal in Recv`
		return err
	}
	if _, err := c.RecvTimeout(0, 1+2, time.Second); err != nil { // want `magic tag literal in RecvTimeout`
		return err
	}
	if err := c.Send(1, tagReserved, "x"); err != nil { // want `tag constant 1073741824 in Send is outside the user range`
		return err
	}
	return c.Send(1, tagNegative, "x") // want `tag constant -3 in Send is outside the user range`
}

func good(c *mpi.Comm) error {
	if err := c.Send(1, tagFitness, "x"); err != nil {
		return err
	}
	if _, err := c.Recv(0, tagRows); err != nil {
		return err
	}
	if _, err := c.Recv(mpi.AnySource, mpi.AnyTag); err != nil { // wildcards are the mpi package's own constants
		return err
	}
	if err := c.Send(1, tagDerived, "x"); err != nil { // arithmetic over named constants is fine
		return err
	}
	for w := 0; w < c.Size(); w++ {
		if err := c.Send(w, tagBase+w, "x"); err != nil { // dynamic tag built from a named base
			return err
		}
	}
	_, err := c.RecvTimeout(0, tagFitness, time.Second)
	return err
}

func annotated(c *mpi.Comm) error {
	// Wire-compat probe: the peer protocol fixes this value.
	return c.Send(1, 9, "probe") //egdlint:allow mpitag wire-compat probe value fixed by peer protocol
}
