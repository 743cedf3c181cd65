package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Heartbeat timings for tests: generous enough that a live goroutine cannot
// plausibly miss the deadline under -race scheduling jitter.
const (
	testBeat   = 20 * time.Millisecond
	testMisses = 5
)

// evictRecover is the canonical survivor-side recovery step: on an error
// caused by a rank failure (a revoked communicator or a poisoned endpoint),
// agree on the survivors and shrink onto them. Returns the new comm, or
// false when the error is not a rank failure (the caller's own fault fires,
// say) or this rank is not itself a survivor.
func evictRecover(c *Comm, err error) (*Comm, bool) {
	var rf *RankFailedError
	if !errors.Is(err, ErrRevoked) && !errors.As(err, &rf) {
		return nil, false
	}
	surv, err := c.Agree()
	if err != nil {
		return nil, false
	}
	nc, err := c.Shrink(surv)
	if err != nil {
		return nil, false
	}
	return nc, true
}

// The tentpole scenario at the mpi layer: a scripted kill takes a worker
// down mid-run; the survivors detect it by heartbeat, agree on the
// surviving set, shrink, and finish the remaining generations on the
// sub-communicator. Run returns nil — the failure was recovered live — and
// the eviction record names the dead rank.
func TestEvictionKilledWorkerRecoversLive(t *testing.T) {
	const gens = 8
	w := NewWorld(4)
	w.InstallFaultPlan(NewFaultPlan().Kill(2, 3))
	w.EnableEviction(testBeat, testMisses)

	var mu sync.Mutex
	groups := make(map[int][]int) // orig rank -> final group seen

	err := w.Run(func(c *Comm) error {
		g := 0
		for g < gens {
			var err error
			if c.Rank() == 0 {
				for i := 1; i < c.Size(); i++ {
					if _, err = c.Recv(AnySource, 7); err != nil {
						break
					}
				}
				if err == nil {
					for i := 1; i < c.Size(); i++ {
						if err = c.Send(i, 8, float64(g)); err != nil {
							break
						}
					}
				}
			} else {
				if err = c.Send(0, 7, float64(c.OrigRank())); err == nil {
					var msg Message
					if msg, err = c.Recv(0, 8); err == nil {
						g = int(msg.Payload.(float64))
					}
				}
			}
			if err == nil {
				g++
				continue
			}
			nc, ok := evictRecover(c, err)
			if !ok {
				return err
			}
			c = nc
			// Resynchronise the generation on the new communicator, the
			// way the sim's resume broadcast does.
			v, berr := c.Bcast(0, float64(g))
			if berr != nil {
				return berr
			}
			g = int(v.(float64))
		}
		mu.Lock()
		groups[c.OrigRank()] = c.world.orig
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("Run returned %v, want nil (live recovery)", err)
	}
	evs := w.Evictions()
	if len(evs) != 1 || evs[0].Rank != 2 {
		t.Fatalf("evictions = %+v, want exactly rank 2", evs)
	}
	if !errors.Is(evs[0].Err, ErrInjectedFault) {
		t.Errorf("eviction cause lost the injected fault: %v", evs[0].Err)
	}
	want := []int{0, 1, 3}
	for _, orig := range want {
		got := groups[orig]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("rank %d finished with group %v, want %v", orig, got, want)
		}
	}
	if len(groups) != 3 {
		t.Errorf("%d ranks finished, want 3", len(groups))
	}
}

// Agree with no failures completes immediately with the full rank set,
// identically on every rank.
func TestAgreeNoFailuresReturnsEveryone(t *testing.T) {
	w := NewWorld(5)
	w.EnableEviction(testBeat, testMisses)
	var mu sync.Mutex
	var results [][]int
	err := w.Run(func(c *Comm) error {
		surv, err := c.Agree()
		if err != nil {
			return err
		}
		mu.Lock()
		results = append(results, surv)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]int{0, 1, 2, 3, 4})
	for _, r := range results {
		if fmt.Sprint(r) != want {
			t.Fatalf("agreement diverged: %v, want %v", r, want)
		}
	}
	if len(results) != 5 {
		t.Fatalf("%d ranks agreed, want 5", len(results))
	}
}

// After a rank is declared failed, a Send naming it as destination fails
// fast with the recorded *RankFailedError — the poisoned endpoint — instead
// of buffering into a mailbox nobody will ever drain.
func TestSendToEvictedRankFailsFast(t *testing.T) {
	w := NewWorld(3)
	w.EnableEviction(testBeat, testMisses)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return boom
		case 0:
			for len(w.Evictions()) == 0 {
				time.Sleep(time.Millisecond)
			}
			err := c.Send(1, 9, 1.0) // deliberate orphan: the test asserts sends to an evicted rank fail
			var rf *RankFailedError
			if !errors.As(err, &rf) || rf.Rank != 1 {
				return fmt.Errorf("send to dead rank returned %v, want RankFailedError{Rank:1}", err)
			}
			if !errors.Is(err, ErrAborted) {
				return fmt.Errorf("poisoned send does not match ErrAborted: %v", err)
			}
			return nil
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if evs := w.Evictions(); len(evs) != 1 || evs[0].Rank != 1 || !errors.Is(evs[0].Err, boom) {
		t.Fatalf("evictions = %+v, want rank 1 with cause boom", evs)
	}
}

// Revocation must release a blocked Recv: a survivor parked on a receive
// from the dead rank unwinds with an error matching ErrRevoked (and still
// matching ErrAborted for pre-eviction unwind code), with errors.As naming
// the dead rank.
func TestRevokeReleasesBlockedRecv(t *testing.T) {
	w := NewWorld(3)
	w.EnableEviction(testBeat, testMisses)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return errors.New("crash")
		case 0:
			_, err := c.Recv(1, 4) // deliberate orphan: rank 1 crashes and revocation must release this receive
			if !errors.Is(err, ErrRevoked) {
				return fmt.Errorf("blocked Recv returned %v, want ErrRevoked", err)
			}
			var rf *RankFailedError
			if !errors.As(err, &rf) || rf.Rank != 1 {
				return fmt.Errorf("revocation error does not name rank 1: %v", err)
			}
			return nil
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Shrink input validation: empty, out-of-range, and duplicated survivor
// lists are rejected; identical survivor sets share one cached sub-world.
func TestShrinkValidatesSurvivors(t *testing.T) {
	w := NewWorld(4)
	if _, err := w.Shrink(nil); err == nil {
		t.Error("empty survivor set accepted")
	}
	if _, err := w.Shrink([]int{0, 4}); err == nil {
		t.Error("out-of-range survivor accepted")
	}
	if _, err := w.Shrink([]int{1, 1}); err == nil {
		t.Error("duplicate survivor accepted")
	}
	a, err := w.Shrink([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Shrink([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same survivor set produced distinct sub-worlds")
	}
	if a.Size() != 2 {
		t.Errorf("shrunk size = %d, want 2", a.Size())
	}
}

// A shrunk communicator renumbers ranks densely, reports original ranks via
// OrigRank/Group, routes messages between new ranks, and keeps charging
// operation counters to original ranks on the root world.
func TestShrinkRemapsRanksAndCounters(t *testing.T) {
	w := NewWorld(4)
	base2 := w.RankSends(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 || c.Rank() == 3 {
			return nil // not survivors; just exit
		}
		nc, err := c.Shrink([]int{0, 2})
		if err != nil {
			return err
		}
		if nc.Size() != 2 {
			return fmt.Errorf("shrunk comm size %d", nc.Size())
		}
		switch c.Rank() {
		case 0:
			if nc.Rank() != 0 || nc.OrigRank() != 0 {
				return fmt.Errorf("orig 0 mapped to rank %d (orig %d)", nc.Rank(), nc.OrigRank())
			}
			msg, err := nc.Recv(1, 5)
			if err != nil {
				return err
			}
			if msg.Source != 1 || msg.Payload.(float64) != 42 {
				return fmt.Errorf("got %+v", msg)
			}
		case 2:
			if nc.Rank() != 1 || nc.OrigRank() != 2 {
				return fmt.Errorf("orig 2 mapped to rank %d (orig %d)", nc.Rank(), nc.OrigRank())
			}
			if err := nc.Send(0, 5, 42.0); err != nil {
				return err
			}
			if g := fmt.Sprint(nc.world.orig); g != fmt.Sprint([]int{0, 2}) {
				return fmt.Errorf("group = %s", g)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.RankSends(2); got != base2+1 {
		t.Errorf("orig rank 2 send counter advanced by %d, want 1", got-base2)
	}
	// The sub-world was registered: a non-survivor shrink call fails.
	err = w.Run(func(c *Comm) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// A rank outside the survivor set cannot obtain a handle on the shrunk
// communicator.
func TestShrinkRejectsNonSurvivorCaller(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		nc, err := c.Shrink([]int{0, 2})
		if c.Rank() == 1 {
			if err == nil {
				return errors.New("non-survivor got a shrunk comm")
			}
			return nil
		}
		if err != nil {
			return err
		}
		return nc.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Collectives work on a shrunk communicator: the binomial trees span the
// new dense numbering.
func TestShrinkCollectives(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return nil
		}
		nc, err := c.Shrink([]int{0, 1, 3, 4})
		if err != nil {
			return err
		}
		v, err := nc.Bcast(0, float64(nc.Rank())*0+7.5)
		if err != nil {
			return err
		}
		if v.(float64) != 7.5 {
			return fmt.Errorf("bcast got %v", v)
		}
		sum, err := nc.Reduce(0, float64(nc.OrigRank()), OpSum)
		if err != nil {
			return err
		}
		if nc.Rank() == 0 && sum != 0+1+3+4 {
			return fmt.Errorf("reduce got %v, want 8", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Two staggered worker deaths: recovery runs one epoch per failure, and the
// run still completes live with both evictions recorded.
func TestEvictionTwoStaggeredFailures(t *testing.T) {
	const gens = 12
	w := NewWorld(5)
	w.InstallFaultPlan(NewFaultPlan().Kill(2, 2).Kill(4, 6))
	w.EnableEviction(testBeat, testMisses)

	err := w.Run(func(c *Comm) error {
		g := 0
		for g < gens {
			var err error
			if c.Rank() == 0 {
				for i := 1; i < c.Size(); i++ {
					if _, err = c.Recv(AnySource, 7); err != nil {
						break
					}
				}
				if err == nil {
					for i := 1; i < c.Size(); i++ {
						if err = c.Send(i, 8, float64(g)); err != nil {
							break
						}
					}
				}
			} else {
				if err = c.Send(0, 7, 1.0); err == nil {
					var msg Message
					if msg, err = c.Recv(0, 8); err == nil {
						g = int(msg.Payload.(float64))
					}
				}
			}
			if err == nil {
				g++
				continue
			}
			nc, ok := evictRecover(c, err)
			if !ok {
				return err
			}
			c = nc
			v, berr := c.Bcast(0, float64(g))
			if berr != nil {
				// A second failure can land during resynchronisation;
				// run another recovery epoch.
				nc, ok = evictRecover(c, berr)
				if !ok {
					return berr
				}
				c = nc
				if v, berr = c.Bcast(0, float64(g)); berr != nil {
					return berr
				}
			}
			g = int(v.(float64))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run returned %v, want nil", err)
	}
	evs := w.Evictions()
	if len(evs) != 2 {
		t.Fatalf("evictions = %+v, want 2", evs)
	}
	got := map[int]bool{evs[0].Rank: true, evs[1].Rank: true}
	if !got[2] || !got[4] {
		t.Fatalf("evicted ranks %v, want {2,4}", got)
	}
}

// EnableEviction on a sub-world is a programming error.
func TestEnableEvictionOnSubWorldPanics(t *testing.T) {
	w := NewWorld(3)
	sub, err := w.Shrink([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EnableEviction on sub-world did not panic")
		}
	}()
	sub.EnableEviction(0, 0)
}

// Agree without EnableEviction reports a usable error instead of
// deadlocking on uninitialised detector state.
func TestAgreeRequiresEviction(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		_, err := c.Agree()
		if err == nil {
			return errors.New("Agree without eviction succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Regression: a receive posted on an already-revoked communicator must
// fail fast with ErrRevoked, not sit out the receive deadline waiting for
// a message that can never arrive.
func TestRecvOnRevokedCommFailsFast(t *testing.T) {
	w := NewWorld(2)
	w.EnableEviction(testBeat, testMisses)
	w.SetRecvTimeout(10 * time.Second)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		// Wait for rank 1's failure to revoke this comm.
		for c.world.revokeErr() == nil {
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		_, rerr := c.Recv(1, 3)
		if !errors.Is(rerr, ErrRevoked) {
			return fmt.Errorf("Recv on revoked comm: %v, want ErrRevoked", rerr)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			return fmt.Errorf("Recv on revoked comm took %v (hung toward the deadline)", elapsed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Regression: a Shrink racing past the end of Run builds a sub-world no
// send can ever reach; a receive on it must fail fast with ErrShutdown
// instead of hanging until the receive deadline.
func TestShrinkAfterShutdownFailsFast(t *testing.T) {
	w := NewWorld(3)
	w.EnableEviction(testBeat, testMisses)
	w.SetRecvTimeout(10 * time.Second)
	if err := w.Run(func(c *Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	sub, err := w.Shrink([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, rerr := (&Comm{world: sub, rank: 0}).Recv(1, 3)
	if !errors.Is(rerr, ErrShutdown) {
		t.Fatalf("recv on post-shutdown shrink: %v, want ErrShutdown", rerr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("recv on post-shutdown shrink took %v (hung toward the deadline)", elapsed)
	}
}
