package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

var worldSizes = []int{1, 2, 3, 4, 5, 8, 13, 16, 32}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, size := range worldSizes {
		for root := 0; root < size; root += max(1, size/3) {
			w := NewWorld(size)
			err := w.Run(func(c *Comm) error {
				var payload any
				if c.Rank() == root {
					payload = []float64{3.5, float64(root)}
				}
				got, err := c.Bcast(root, payload)
				if err != nil {
					return err
				}
				v, ok := got.([]float64)
				if !ok || len(v) != 2 || v[0] != 3.5 || v[1] != float64(root) {
					return fmt.Errorf("rank %d got %v", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size %d root %d: %v", size, root, err)
			}
		}
	}
}

func TestBcastSequenceDifferentRoots(t *testing.T) {
	// Back-to-back broadcasts with different roots must stay correctly
	// matched even when fast ranks race ahead.
	w := NewWorld(8)
	err := w.Run(func(c *Comm) error {
		for iter := 0; iter < 50; iter++ {
			root := iter % c.Size()
			var p any
			if c.Rank() == root {
				p = float64(iter * 100)
			}
			got, err := c.Bcast(root, p)
			if err != nil {
				return err
			}
			if got.(float64) != float64(iter*100) {
				return fmt.Errorf("iter %d: rank %d got %v", iter, c.Rank(), got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Every root gets the sum; the others get 0, and an operator other than
// OpSum is refused.
func TestReduceSum(t *testing.T) {
	for _, size := range worldSizes {
		w := NewWorld(size)
		want := float64(size*(size-1)) / 2
		err := w.Run(func(c *Comm) error {
			for root := 0; root < size; root++ {
				got, err := c.Reduce(root, float64(c.Rank()), OpSum)
				if err != nil {
					return err
				}
				if c.Rank() == root && got != want || c.Rank() != root && got != 0 {
					return fmt.Errorf("root %d: rank %d got %v, want %v at the root", root, c.Rank(), got, want)
				}
			}
			if _, err := c.Reduce(0, 1, OpSum+1); err == nil {
				return errors.New("an unknown reduction op was accepted")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestGatherAllRoots(t *testing.T) {
	for _, size := range []int{1, 2, 4, 9} {
		for root := 0; root < size; root += max(1, size/2) {
			w := NewWorld(size)
			err := w.Run(func(c *Comm) error {
				got, err := c.Gather(root, float64(c.Rank()*c.Rank()))
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root got %v", got)
					}
					return nil
				}
				for i, v := range got {
					if v.(float64) != float64(i*i) {
						return fmt.Errorf("slot %d = %v", i, v)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size %d root %d: %v", size, root, err)
			}
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	// No rank may pass barrier k+1's entry before all ranks passed k.
	const iters = 20
	w := NewWorld(8)
	var phase atomic.Int64
	var entered [iters]atomic.Int64
	err := w.Run(func(c *Comm) error {
		for k := 0; k < iters; k++ {
			entered[k].Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			// After the barrier, every rank must observe all 8 entries.
			if got := entered[k].Load(); got != 8 {
				return fmt.Errorf("barrier %d released with %d entries", k, got)
			}
			phase.Store(int64(k))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSingleRank(t *testing.T) {
	w := NewWorld(1)
	if err := w.Run(func(c *Comm) error { return c.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Interleave different collectives in the same program order on every
	// rank: the exact pattern the simulation engine uses per generation.
	w := NewWorld(8)
	err := w.Run(func(c *Comm) error {
		for gen := 0; gen < 30; gen++ {
			pair, err := c.Bcast(0, func() any {
				if c.Rank() == 0 {
					return []byte{byte(gen % 8), byte((gen + 3) % 8)}
				}
				return nil
			}())
			if err != nil {
				return err
			}
			sel := pair.([]byte)
			if int(sel[0]) != gen%8 {
				return fmt.Errorf("gen %d: bad pair %v", gen, sel)
			}
			total, err := c.Reduce(0, float64(c.Rank()), OpSum)
			if err != nil {
				return err
			}
			if c.Rank() == 0 && total != 28 {
				return fmt.Errorf("gen %d: reduce %v", gen, total)
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

func TestCollectiveCounters(t *testing.T) {
	w := NewWorld(4)
	w.EnableMetrics()
	err := w.Run(func(c *Comm) error {
		_, err := c.Bcast(0, func() any {
			if c.Rank() == 0 {
				return 1.0
			}
			return nil
		}())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, _, collectives := commTotals(w)
	if collectives != 4 { // each rank counts its participation
		t.Errorf("collective ops = %d, want 4", collectives)
	}
	if msgs != 3 { // binomial tree: P-1 messages total
		t.Errorf("bcast used %d messages, want 3", msgs)
	}
}

// The tree-vs-flat pair quantifies what the binomial tree buys: the flat
// variant is root sending size-1 individual messages.
func BenchmarkBcastTree64(b *testing.B) { benchBcast(b, 64, (*Comm).Bcast) }
func BenchmarkBcastFlat64(b *testing.B) { benchBcast(b, 64, flatBcast) }

func flatBcast(c *Comm, root int, payload any) (any, error) {
	const tag = 1
	if c.Rank() != root {
		return c.Recv(root, tag)
	}
	for dst := 0; dst < c.Size(); dst++ {
		if dst == root {
			continue
		}
		if err := c.Send(dst, tag, payload); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

func benchBcast(b *testing.B, size int, bcast func(c *Comm, root int, payload any) (any, error)) {
	w := NewWorld(size)
	payload := make([]float64, 128)
	b.ResetTimer()
	err := w.Run(func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			var p any
			if c.Rank() == 0 {
				p = payload
			}
			if _, err := bcast(c, 0, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBarrier16(b *testing.B) {
	w := NewWorld(16)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
