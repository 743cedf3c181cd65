package mpi

import "fmt"

// Collective tags. Each collective call site within an SPMD program must be
// reached by all ranks in the same order (the MPI rule); a per-world epoch
// counter would not survive interleaving, so tags encode the collective kind
// and ranks rendezvous by kind. Non-overtaking delivery per (source, tag)
// keeps successive collectives of the same kind ordered.
const (
	tagBcast = internalTagBase + iota
	tagReduce
	tagGather
	tagBarrierUp
	tagBarrierDown
)

// enterCollective counts one collective entry for this rank and consults
// the fault plan: a scripted FailCollective fault makes the rank fail here
// with ErrInjectedFault, modelling a node dying inside a collective.
func (c *Comm) enterCollective() error {
	w := c.world
	n := w.collCounts[c.rank].Add(1)
	if p := w.plan; p != nil && p.onCollective(c.rank, n) {
		return fmt.Errorf("mpi: rank %d failed at collective %d: %w", c.rank, n, ErrInjectedFault)
	}
	return nil
}

// Bcast broadcasts root's payload to every rank along a binomial tree
// (log2 P rounds — the collective-network pattern the paper leans on).
// Every rank receives the broadcast value; root receives its own payload
// argument back. Non-root ranks may pass nil.
func (c *Comm) Bcast(root int, payload any) (any, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	if stop := c.collTimer("bcast"); stop != nil {
		defer stop()
	}
	if err := c.enterCollective(); err != nil {
		return nil, err
	}
	size := c.world.size
	if size == 1 {
		return payload, nil
	}
	vrank := (c.rank - root + size) % size
	value := payload
	// Standard binomial tree: at round `mask`, virtual ranks below mask hold
	// the data and send it to vrank+mask; ranks in [mask, 2*mask) receive
	// from their (unique) parent vrank-mask. Per-(source, tag) FIFO order
	// keeps back-to-back collectives with different roots matched.
	for mask := 1; mask < size; mask <<= 1 {
		if vrank < mask {
			child := vrank + mask
			if child < size {
				dst := (child + root) % size
				if err := c.send(dst, tagBcast, value); err != nil {
					return nil, err
				}
			}
		} else if vrank < mask<<1 {
			parent := (vrank - mask + root) % size
			v, err := c.recv(parent, tagBcast)
			if err != nil {
				return nil, err
			}
			value = v
		}
	}
	return value, nil
}

// Op is a reduction operator.
type Op int

// OpSum, the sum, is the one reduction operator.
const OpSum Op = 0

// Reduce combines every rank's value with op; the result is returned at
// root (other ranks get 0). Binomial-tree reduction, log2 P rounds.
func (c *Comm) Reduce(root int, value float64, op Op) (float64, error) {
	if err := c.checkRank(root); err != nil {
		return 0, err
	}
	if op != OpSum {
		return 0, fmt.Errorf("mpi: unknown reduction op %d", int(op))
	}
	if stop := c.collTimer("reduce"); stop != nil {
		defer stop()
	}
	if err := c.enterCollective(); err != nil {
		return 0, err
	}
	size := c.world.size
	vrank := (c.rank - root + size) % size
	acc := value
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % size
			if err := c.send(parent, tagReduce, acc); err != nil {
				return 0, err
			}
			break
		}
		peer := vrank | mask
		if peer < size {
			v, err := c.recv((peer+root)%size, tagReduce)
			if err != nil {
				return 0, err
			}
			acc += v.(float64)
		}
		mask <<= 1
	}
	if c.rank == root {
		return acc, nil
	}
	return 0, nil
}

// Gather collects every rank's payload at root, indexed by rank. Non-root
// ranks receive nil.
func (c *Comm) Gather(root int, payload any) ([]any, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	if stop := c.collTimer("gather"); stop != nil {
		defer stop()
	}
	if err := c.enterCollective(); err != nil {
		return nil, err
	}
	if c.rank != root {
		if err := c.send(root, tagGather, payload); err != nil {
			return nil, err
		}
		return nil, nil
	}
	// One message per source, in rank order: a fast rank's contribution to
	// the next Gather waits behind its contribution to this one.
	out := make([]any, c.world.size)
	out[root] = payload
	for src := 0; src < c.world.size; src++ {
		if src == root {
			continue
		}
		v, err := c.recv(src, tagGather)
		if err != nil {
			return nil, err
		}
		out[src] = v
	}
	return out, nil
}

// Barrier blocks until every rank has entered it: an up-sweep to rank 0
// followed by a broadcast release (dissemination would be fewer rounds; the
// tree matches the Blue Gene collective network the paper describes).
func (c *Comm) Barrier() error {
	if stop := c.collTimer("barrier"); stop != nil {
		defer stop()
	}
	if err := c.enterCollective(); err != nil {
		return err
	}
	size := c.world.size
	vrank := c.rank
	// Up-sweep: each node waits for its binomial-tree children then signals
	// its parent.
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			if err := c.send(vrank&^mask, tagBarrierUp, nil); err != nil {
				return err
			}
			break
		}
		peer := vrank | mask
		if peer < size {
			if _, err := c.recv(peer, tagBarrierUp); err != nil {
				return err
			}
		}
	}
	// Down-sweep release along the same binomial tree.
	for mask := 1; mask < size; mask <<= 1 {
		if vrank < mask {
			child := vrank + mask
			if child < size {
				if err := c.send(child, tagBarrierDown, nil); err != nil {
					return err
				}
			}
		} else if vrank < mask<<1 {
			if _, err := c.recv(vrank-mask, tagBarrierDown); err != nil {
				return err
			}
		}
	}
	return nil
}
