package mpi

import (
	"errors"
	"testing"
	"time"
)

func TestKillAfterNthSendIsDeterministic(t *testing.T) {
	// Rank 0 dies at its 3rd send on every run: the receiver must see
	// exactly the first two payloads, then the abort naming rank 0.
	for trial := 0; trial < 5; trial++ {
		w := NewWorld(2)
		w.InstallFaultPlan(NewFaultPlan().Kill(0, 3))
		var got []int
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 1; i <= 10; i++ {
					if err := c.Send(1, 1, float64(i)); err != nil {
						return err
					}
				}
				return nil
			}
			for {
				v, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				got = append(got, int(v.(float64)))
			}
		})
		if !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("trial %d: err = %v, want ErrInjectedFault", trial, err)
		}
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 0 {
			t.Fatalf("trial %d: errors.As RankFailedError = %v (rank %v)", trial, rf, rf)
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("trial %d: receiver saw %v, want [1 2]", trial, got)
		}
	}
}

func TestKillFiresOnceAcrossWorlds(t *testing.T) {
	// A supervisor restarting with the same plan must not be re-killed:
	// one-shot faults stay consumed.
	plan := NewFaultPlan().Kill(0, 1)
	run := func() error {
		w := NewWorld(2)
		w.InstallFaultPlan(plan)
		return w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 1, []byte("hello"))
			}
			_, err := c.Recv(0, 1)
			return err
		})
	}
	if err := run(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("first run err = %v, want ErrInjectedFault", err)
	}
	if !plan.Faults()[0].Fired() {
		t.Fatal("fault not marked fired")
	}
	if err := run(); err != nil {
		t.Fatalf("second run err = %v, want nil (fault already consumed)", err)
	}
}

func TestDelaySendsStillDeliver(t *testing.T) {
	w := NewWorld(2)
	w.InstallFaultPlan(NewFaultPlan().Delay(0, 1, 1, 20*time.Millisecond))
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, 42.0)
		}
		v, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if v.(float64) != 42 {
			return errors.New("wrong payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("delay fault did not stall the send")
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	w := NewWorld(2)
	w.SetRecvTimeout(20 * time.Millisecond)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		_, err := c.Recv(1, 1)
		if !errors.Is(err, ErrRecvTimeout) {
			return errors.New("deadline did not expire")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutDeliversBeforeDeadline(t *testing.T) {
	w := NewWorld(2)
	w.SetRecvTimeout(5 * time.Second)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte("on time"))
		}
		v, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(v.([]byte)) != "on time" {
			return errors.New("wrong payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldRecvTimeoutDetectsDroppedCollectivePacket(t *testing.T) {
	// Losing a collective-internal packet deadlocks the collective in real
	// MPI; with a world receive deadline the stalled rank detects it
	// instead. A packet held past the deadline is lost as far as the
	// receiver can tell: rank 1's first send, its barrier up-sweep packet,
	// is delayed well beyond it.
	w := NewWorld(2)
	w.InstallFaultPlan(NewFaultPlan().Delay(1, 1, 1, time.Second))
	w.SetRecvTimeout(50 * time.Millisecond)
	err := w.Run(func(c *Comm) error {
		return c.Barrier()
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	// Rank 0 is the stalled receiver: rank 1 is still in its delayed send
	// when rank 0's deadline fires, and finds the world aborted once it
	// wakes.
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 0 {
		t.Fatalf("failed rank = %+v, want the stalled receiver, rank 0", rf)
	}
}

func TestFailCollective(t *testing.T) {
	w := NewWorld(4)
	w.InstallFaultPlan(NewFaultPlan().FailCollective(2, 1))
	err := w.Run(func(c *Comm) error {
		return c.Barrier()
	})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatal("rank failure must still match ErrAborted")
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 2 {
		t.Fatalf("failed rank = %+v, want rank 2", rf)
	}
}

func TestRunJoinsAllRankErrors(t *testing.T) {
	// Rank 1 is the root cause; ranks 0 and 2 unwind on the abort. The
	// joined error must surface the root cause even though rank 0's
	// cascade error sorts first.
	w := NewWorld(3)
	rootCause := errors.New("root cause")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return rootCause
		}
		_, err := c.Recv(1, 9)
		return err // cascade: aborted by rank 1
	})
	if !errors.Is(err, rootCause) {
		t.Fatalf("joined error lost the root cause: %v", err)
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 {
		t.Fatalf("failed rank = %+v, want rank 1", rf)
	}
	if !contains(err.Error(), "rank 0") || !contains(err.Error(), "rank 2") {
		t.Fatalf("joined error dropped survivor context: %v", err)
	}
}

func TestRecvReleasedAtShutdown(t *testing.T) {
	// A receive still pending on a goroutine the body left behind must not
	// outlive Run: world teardown completes it with ErrShutdown.
	w := NewWorld(2)
	done := make(chan error, 1)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			go func() {
				_, err := c.Recv(1, 5) // deliberate orphan: the test asserts world teardown completes it
				done <- err
			}()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("leaked Recv completed with %v, want ErrShutdown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("leaked Recv still pending after Run returned")
	}
}

func TestRankOperationCounters(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, 1.0); err != nil {
				return err
			}
			if err := c.Send(1, 1, 2.0); err != nil {
				return err
			}
		} else {
			for i := 0; i < 2; i++ {
				if _, err := c.Recv(0, 1); err != nil {
					return err
				}
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0's sends: 2 user messages + barrier down-sweep packet.
	if n := w.RankSends(0); n != 3 {
		t.Errorf("rank 0 sends = %d, want 3", n)
	}
	// Rank 1's sends: barrier up-sweep packet only.
	if n := w.RankSends(1); n != 1 {
		t.Errorf("rank 1 sends = %d, want 1", n)
	}
	if n := w.RankCollectives(0); n != 1 {
		t.Errorf("rank 0 collectives = %d, want 1", n)
	}
	if n := w.RankCollectives(1); n != 1 {
		t.Errorf("rank 1 collectives = %d, want 1", n)
	}
}

func TestParseFault(t *testing.T) {
	// A plain struct mirror of Fault's parsed fields: Fault itself embeds an
	// atomic.Bool, so table entries must not copy it.
	type parsed struct {
		rank  int
		kind  FaultKind
		after uint64
		count uint64
		delay time.Duration
	}
	cases := []struct {
		spec string
		want parsed
		err  bool
	}{
		{spec: "rank=3,after=500", want: parsed{rank: 3, kind: KillAfterSends, after: 500}},
		{spec: "rank=0", want: parsed{rank: 0, kind: KillAfterSends}},
		{spec: " rank=1 , after=10 , kind=delay , delay=5ms , count=3 ", want: parsed{rank: 1, kind: DelaySends, after: 10, count: 3, delay: 5 * time.Millisecond}},
		{spec: "rank=2,after=5,kind=delay,delay=50ms", want: parsed{rank: 2, kind: DelaySends, after: 5, delay: 50 * time.Millisecond}},
		{spec: "rank=0,after=2,kind=collective", want: parsed{rank: 0, kind: FailCollective, after: 2}},
		{spec: "", err: true},                                  // missing rank
		{spec: "after=5", err: true},                           // missing rank
		{spec: "rank=-1", err: true},                           // negative rank
		{spec: "rank=x", err: true},                            // non-numeric rank
		{spec: "rank=1,after=-3", err: true},                   // negative after
		{spec: "rank=1,count=0", err: true},                    // zero count
		{spec: "rank=1,kind=explode", err: true},               // unknown kind
		{spec: "rank=1,after=10,kind=drop,count=3", err: true}, // the wire cannot lose a message
		{spec: "rank=1,kind=delay", err: true},                 // delay kind needs delay=
		{spec: "rank=1,delay=banana", err: true},               // bad duration
		{spec: "rank=1,bogus=7", err: true},                    // unknown key
		{spec: "rank", err: true},                              // not key=value
	}
	for _, c := range cases {
		f, err := ParseFault(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseFault(%q) accepted, want error", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFault(%q) = %v", c.spec, err)
			continue
		}
		got := parsed{rank: f.Rank, kind: f.Kind, after: f.After, count: f.Count, delay: f.Delay}
		if got != c.want {
			t.Errorf("ParseFault(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	if KillAfterSends.String() != "kill" ||
		DelaySends.String() != "delay" || FailCollective.String() != "collective" {
		t.Fatal("FaultKind strings drifted from the ParseFault vocabulary")
	}
	if FaultKind(99).String() == "" {
		t.Fatal("unknown FaultKind must still stringify")
	}
}

func TestFaultStressNoHang(t *testing.T) {
	// Kill rank 2 at varying points while three workers stream messages at
	// rank 0. Whatever the interleaving, the run must terminate (no
	// deadlock) with the injected fault as the root cause. Run under -race
	// this doubles as a concurrency check on the fault/abort machinery.
	const perWorker = 50
	for _, killAt := range []uint64{1, 7, 25, perWorker} {
		w := NewWorld(4)
		w.InstallFaultPlan(NewFaultPlan().Kill(2, killAt))
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < perWorker; i++ {
					for src := 1; src < c.Size(); src++ {
						if _, err := c.Recv(src, 1); err != nil {
							return err
						}
					}
				}
				return nil
			}
			for i := 0; i < perWorker; i++ {
				if err := c.Send(0, 1, float64(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("killAt=%d: err = %v, want ErrInjectedFault", killAt, err)
		}
		var rf *RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 2 {
			t.Fatalf("killAt=%d: failed rank = %+v, want rank 2", killAt, rf)
		}
	}
}
