package mpi

import (
	"reflect"
	"testing"
)

// TestMetricsRoundTripMatchesPayloadAccounting sends one payload of
// every payload kind across a two-rank world and asserts the
// per-rank byte counters agree with the payloadBytes model and with the
// world's coarse totals.
func TestMetricsRoundTripMatchesPayloadAccounting(t *testing.T) {
	payloads := []any{
		nil,
		[]byte{1, 2, 3},
		[]float64{1, 2, 3, 4},
		3.14,
		[]byte("hello"),
		[]float64{},
	}
	var wantBytes uint64
	for _, p := range payloads {
		n, err := payloadBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += n
	}

	w := NewWorld(2)
	w.EnableMetrics()
	const tag = 7
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for _, p := range payloads {
				if err := c.Send(1, tag, p); err != nil {
					return err
				}
			}
			return nil
		}
		for range payloads {
			if _, err := c.Recv(0, tag); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	snaps := w.CommMetricsSnapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d rank snapshots, want 2", len(snaps))
	}
	sender, receiver := snaps[0], snaps[1]
	if sender.SentMsgs != uint64(len(payloads)) || sender.SentBytes != wantBytes {
		t.Errorf("sender sent %d msgs / %d bytes, want %d / %d",
			sender.SentMsgs, sender.SentBytes, len(payloads), wantBytes)
	}
	if receiver.RecvMsgs != uint64(len(payloads)) || receiver.RecvBytes != wantBytes {
		t.Errorf("receiver got %d msgs / %d bytes, want %d / %d",
			receiver.RecvMsgs, receiver.RecvBytes, len(payloads), wantBytes)
	}
	// Everything travelled on one tag.
	want := []TagTraffic{{Tag: tag, Msgs: uint64(len(payloads)), Bytes: wantBytes}}
	if !reflect.DeepEqual(sender.SentByTag, want) {
		t.Errorf("sender per-tag = %+v, want %+v", sender.SentByTag, want)
	}
	if !reflect.DeepEqual(receiver.RecvByTag, want) {
		t.Errorf("receiver per-tag = %+v, want %+v", receiver.RecvByTag, want)
	}
}

// TestMetricsCollectiveAccounting checks per-op invocation counts and
// that wall time accumulates.
func TestMetricsCollectiveAccounting(t *testing.T) {
	w := NewWorld(4)
	w.EnableMetrics()
	err := w.Run(func(c *Comm) error {
		if _, err := c.Bcast(0, 1.0); err != nil {
			return err
		}
		if _, err := c.Bcast(0, 2.0); err != nil {
			return err
		}
		if _, err := c.Reduce(0, float64(c.Rank()), OpSum); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.CommMetricsSnapshot() {
		byOp := map[string]CollectiveStat{}
		for _, cs := range s.Collectives {
			byOp[cs.Op] = cs
		}
		if byOp["bcast"].Calls != 2 {
			t.Errorf("rank %d: bcast calls = %d, want 2", s.Rank, byOp["bcast"].Calls)
		}
		if byOp["reduce"].Calls != 1 || byOp["barrier"].Calls != 1 {
			t.Errorf("rank %d: reduce/barrier calls = %d/%d, want 1/1",
				s.Rank, byOp["reduce"].Calls, byOp["barrier"].Calls)
		}
		if byOp["bcast"].Nanos < 0 {
			t.Errorf("rank %d: negative bcast time", s.Rank)
		}
	}
}

// TestMetricsDisabledByDefault: no accounting, nil handles, zero cost
// paths exercised.
func TestMetricsDisabledByDefault(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, []float64{1})
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if snaps := w.CommMetricsSnapshot(); snaps != nil {
		t.Fatalf("snapshot without EnableMetrics: %+v", snaps)
	}
}
