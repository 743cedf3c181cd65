package mpi

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestStressMixedTraffic drives many ranks through interleaved
// point-to-point rings, receives in a shuffled source order, and
// collectives for many rounds; run under -race this shakes out ordering and
// matching bugs.
func TestStressMixedTraffic(t *testing.T) {
	const (
		size   = 12
		rounds = 60
	)
	w := NewWorld(size)
	err := w.Run(func(c *Comm) error {
		src := rng.New(uint64(c.Rank()) + 1)
		for r := 0; r < rounds; r++ {
			// Ring shift: everyone sends to the right, receives from the
			// left, with a payload that encodes (round, sender).
			right := (c.Rank() + 1) % size
			left := (c.Rank() - 1 + size) % size
			if err := c.Send(right, 10, []float64{float64(r), float64(c.Rank())}); err != nil {
				return err
			}
			v, err := c.Recv(left, 10)
			if err != nil {
				return err
			}
			got := v.([]float64)
			if got[0] != float64(r) || got[1] != float64(left) {
				return fmt.Errorf("round %d: ring got %v from %d", r, got, left)
			}

			// Extra traffic to rank 0 on a tag that alternates by round,
			// received there in a random source order.
			tag := 20 + r%2
			if c.Rank() != 0 {
				if err := c.Send(0, tag, float64(c.Rank()*1000+r)); err != nil {
					return err
				}
			} else {
				order := make([]int, size-1)
				for i := range order {
					order[i] = i + 1
				}
				for i := len(order) - 1; i > 0; i-- {
					j := int(src.Uint64() % uint64(i+1))
					order[i], order[j] = order[j], order[i]
				}
				for _, from := range order {
					v, err := c.Recv(from, tag)
					if err != nil {
						return err
					}
					if v.(float64) != float64(from*1000+r) {
						return fmt.Errorf("round %d: rank %d sent %v", r, from, v)
					}
				}
			}

			// A collective sequence with a rotating root.
			root := r % size
			var p any
			if c.Rank() == root {
				p = float64(r * r)
			}
			b, err := c.Bcast(root, p)
			if err != nil {
				return err
			}
			if b.(float64) != float64(r*r) {
				return fmt.Errorf("round %d: bcast got %v", r, b)
			}
			sum, err := c.Reduce(root, float64(c.Rank()), OpSum)
			if err != nil {
				return err
			}
			if c.Rank() == root && sum != float64(size*(size-1))/2 {
				return fmt.Errorf("round %d: reduce %v", r, sum)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressManyWorlds runs several independent worlds concurrently to
// verify complete isolation between them.
func TestStressManyWorlds(t *testing.T) {
	done := make(chan error, 8)
	for wi := 0; wi < 8; wi++ {
		go func(wi int) {
			w := NewWorld(4)
			done <- w.Run(func(c *Comm) error {
				for r := 0; r < 30; r++ {
					sum, err := c.Reduce(0, float64(wi), OpSum)
					if err != nil {
						return err
					}
					if c.Rank() == 0 && sum != float64(4*wi) {
						return fmt.Errorf("world %d leaked: sum %v", wi, sum)
					}
				}
				return nil
			})
		}(wi)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
