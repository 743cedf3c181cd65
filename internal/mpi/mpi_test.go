package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorldSize(t *testing.T) {
	if NewWorld(4).Size() != 4 {
		t.Fatal("size mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestRunAllRanksExecute(t *testing.T) {
	var count atomic.Int64
	w := NewWorld(8)
	err := w.Run(func(c *Comm) error {
		count.Add(1)
		if c.Size() != 8 {
			return fmt.Errorf("size %d", c.Size())
		}
		if c.Rank() < 0 || c.Rank() >= 8 {
			return fmt.Errorf("rank %d", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("%d ranks ran", count.Load())
	}
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, 42.0)
		}
		v, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if v.(float64) != 42.0 {
			return fmt.Errorf("bad payload %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameSourceTag(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, float64(i)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			v, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if v.(float64) != float64(i) {
				return fmt.Errorf("message %d overtaken by %v", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvByTagSelectsAcrossQueue(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("first")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("second"))
		}
		// Receive tag 2 first even though tag 1 arrived earlier.
		v, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(v.([]byte)) != "second" {
			return fmt.Errorf("tag-2 recv got %v", v)
		}
		v, err = c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(v.([]byte)) != "first" {
			return fmt.Errorf("tag-1 recv got %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvInvalidArguments(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := c.Recv(5, 1); err == nil {
			return errors.New("recv from rank 5 accepted")
		}
		if _, err := c.Recv(-2, 1); err == nil {
			return errors.New("recv from rank -2 accepted")
		}
		if _, err := c.Recv(1, -5); err == nil {
			return errors.New("recv with tag -5 accepted")
		}
		if _, err := c.Recv(1, internalTagBase+1); err == nil {
			return errors.New("recv with internal tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveInvalidRoot(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := c.Bcast(9, nil); err == nil {
			return errors.New("bcast root 9 accepted")
		}
		if _, err := c.Reduce(-1, 1, OpSum); err == nil {
			return errors.New("reduce root -1 accepted")
		}
		if _, err := c.Gather(5, nil); err == nil {
			return errors.New("gather root 5 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRank(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(5, 1, nil); err == nil { // deliberate orphan: out-of-range rank must be rejected, not delivered
				return errors.New("send to rank 5 accepted")
			}
			if err := c.Send(-1, 1, nil); err == nil { // deliberate orphan: negative rank must be rejected, not delivered
				return errors.New("send to rank -1 accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserTagRangeEnforced(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(1, -5, nil); err == nil {
			return errors.New("negative tag accepted")
		}
		if err := c.Send(1, internalTagBase, nil); err == nil {
			return errors.New("internal tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorAbortsWorld(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return errors.New("boom")
		}
		// Other ranks block on a Recv that will never be satisfied; the
		// abort must release them instead of deadlocking the test.
		_, err := c.Recv(2, 9)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("expected ErrAborted, got %v", err)
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("Run error = %v, want boom", err)
	}
}

func TestRankPanicAbortsWorld(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		_, err := c.Recv(0, 1)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("want ErrAborted, got %v", err)
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("Run error = %v", err)
	}
}

// Regression: a Recv pending across a world abort must surface the
// root-cause *RankFailedError — who died and why — not a generic
// closed-inbox error. The supervisor's restart decision depends on
// errors.As recovering the rank.
func TestRecvAfterAbortReturnsRootCause(t *testing.T) {
	w := NewWorld(3)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return boom
		case 0:
			// Receive from rank 2, which never sends: only the abort can
			// complete it.
			_, rerr := c.Recv(2, 5) // deliberate orphan: only the abort may complete this receive
			var rf *RankFailedError
			if !errors.As(rerr, &rf) {
				return fmt.Errorf("Recv returned %v, want a *RankFailedError", rerr)
			}
			if rf.Rank != 1 || !errors.Is(rf.Err, boom) {
				return fmt.Errorf("Recv blamed rank %d (%v), want rank 1 (boom)", rf.Rank, rf.Err)
			}
			if !errors.Is(rerr, ErrAborted) {
				return fmt.Errorf("Recv error does not match ErrAborted: %v", rerr)
			}
			return nil
		default:
			return nil
		}
	})
	if err == nil || !contains(err.Error(), "boom") {
		t.Fatalf("Run error = %v, want boom", err)
	}
}

// Regression for the abort-publication race: a sender observing the aborted
// flag must find the cause already stored — never the bare ErrAborted
// sentinel — because abortWith publishes the cause before the flag.
func TestSendAfterAbortReturnsRootCause(t *testing.T) {
	for i := 0; i < 50; i++ {
		w := NewWorld(2)
		boom := errors.New("boom")
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return boom
			}
			for {
				err := c.Send(0, 3, 1.0)
				if err == nil {
					continue
				}
				var rf *RankFailedError
				if !errors.As(err, &rf) || rf.Rank != 0 {
					return fmt.Errorf("send after abort returned %v, want RankFailedError{Rank:0}", err)
				}
				return nil
			}
		})
		if contains(err.Error(), "send after abort") {
			t.Fatal(err)
		}
	}
}

// commTotals is the world's traffic so far (EnableMetrics must have been
// called).
func commTotals(w *World) (msgs, bytes, collectives uint64) {
	for _, rc := range w.CommMetricsSnapshot() {
		msgs += rc.SentMsgs
		bytes += rc.SentBytes
		for _, co := range rc.Collectives {
			collectives += co.Calls
		}
	}
	return msgs, bytes, collectives
}

func TestStatsCounters(t *testing.T) {
	w := NewWorld(2)
	w.EnableMetrics()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []float64{1, 2, 3, 4})
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, bytes, _ := commTotals(w)
	if msgs != 1 {
		t.Errorf("messages = %d, want 1", msgs)
	}
	if bytes != 1+32 { // kind byte + four float64s: the size of the encoding
		t.Errorf("bytes = %d, want 33", bytes)
	}
}

// payloadBytes accepts exactly the four payload kinds the runtime carries
// and books the size of their encoding (TestWirePayloadRoundTrip holds it to
// encodePayload); everything else is an error naming the type.
func TestPayloadBytes(t *testing.T) {
	for _, c := range []struct {
		p    any
		want uint64
	}{
		{nil, 0},
		{3.14, 9},
		{[]float64{1}, 9},
		{[]float64{}, 1},
		{[]byte{1, 2, 3}, 4},
	} {
		if got, err := payloadBytes(c.p); err != nil || got != c.want {
			t.Errorf("payloadBytes(%T) = %d, %v, want %d", c.p, got, err, c.want)
		}
	}
	for _, p := range []any{
		int(7), int64(7), uint8(7), true, "hello", [2]int{1, 2}, []int{1}, []uint32{1}, []uint64{1, 2},
		[]any{3.14}, float32(1), &[]float64{1}, struct{}{},
	} {
		if got, err := payloadBytes(p); err == nil || !contains(err.Error(), fmt.Sprintf("%T", p)) {
			t.Errorf("payloadBytes(%T) = %d, %v, want an error naming the type", p, got, err)
		}
	}
}

// A payload that is not one of the four kinds is refused at the send, by
// name and before anything is delivered or counted. The check sits in
// Comm.send, above the transport, so networked worlds refuse the same types
// (TestNetWorldPointToPointAndCollectives sends one over a socket mesh).
func TestSendUnmodelledPayloadIsAnError(t *testing.T) {
	type unmodelled struct{ x int }
	const tag = 3
	w := NewWorld(2)
	w.EnableMetrics()
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		for _, p := range []any{unmodelled{1}, []unmodelled{{2}}, []any{1.0}, 7, "seven"} {
			err := c.Send(1, tag, p) // deliberate orphan: nothing is delivered
			if err == nil || !contains(err.Error(), fmt.Sprintf("%T", p)) {
				t.Errorf("Send(%T) error = %v, want one naming the type", p, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs, _, _ := commTotals(w); msgs != 0 {
		t.Errorf("refused sends counted %d messages, want 0", msgs)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
