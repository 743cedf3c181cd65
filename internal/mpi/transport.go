package mpi

import "sync/atomic"

// Transport is the delivery seam under the runtime's point-to-point layer
// (and therefore under the collectives, which are built purely from
// point-to-point sends and receives). Comm.send validates, counts, and
// accounts a message, then hands the envelope to the world's transport
// for delivery into the destination rank's inbox.
//
// The default transport is the in-process mailbox delivery the runtime has
// always used: a direct enqueue into the destination inbox, bit-identical
// to the pre-transport behaviour. NetTransport (tcp.go) replaces it for
// worlds whose ranks live in separate processes.
type Transport interface {
	// Deliver routes one envelope to rank dst of world w; payload ownership
	// passes to the transport. Deliver is buffered-send semantics: it returns
	// once the message is enqueued for (eventual, reliable) delivery, not
	// once it is received.
	Deliver(w *World, src, dst, tag int, payload any) error
}

// procTransport is the in-process default: every rank of the world lives
// in this process, so delivery is a direct inbox enqueue.
type procTransport struct{}

// Deliver implements Transport by enqueueing into the destination inbox.
func (procTransport) Deliver(w *World, src, dst, tag int, payload any) error {
	w.boxes[dst].put(envelope{source: src, tag: tag, payload: payload})
	return nil
}

// TransportStats is a networked transport's live counter set: the
// observable evidence of the retry/backoff machinery working (reconnects,
// resends, duplicate suppression) plus gross frame traffic. All fields are
// atomically updated; read them through Snapshot.
type TransportStats struct {
	FramesSent  atomic.Uint64
	FramesRecv  atomic.Uint64
	BytesSent   atomic.Uint64
	BytesRecv   atomic.Uint64
	Resends     atomic.Uint64
	DupsDropped atomic.Uint64
	Reconnects  atomic.Uint64
	Redials     atomic.Uint64
	DecodeErrs  atomic.Uint64
}

// TransportSnapshot is a point-in-time copy of TransportStats: a plain
// value, safe to serialise, compare, and export into a metrics registry.
// All counts are per-process (the hosting rank's view of the wire).
type TransportSnapshot struct {
	// FramesSent / FramesRecv / BytesSent / BytesRecv are gross wire
	// traffic, including control frames and resends.
	FramesSent uint64 `json:"frames_sent"`
	FramesRecv uint64 `json:"frames_recv"`
	BytesSent  uint64 `json:"bytes_sent"`
	BytesRecv  uint64 `json:"bytes_recv"`
	// Resends counts reliable frames retransmitted after a reconnect.
	Resends uint64 `json:"resends,omitempty"`
	// DupsDropped counts reliable frames discarded by the receiver's
	// sequence-number duplicate suppression.
	DupsDropped uint64 `json:"dups_dropped,omitempty"`
	// Reconnects counts connections re-established after a failure;
	// Redials counts individual dial attempts during backoff.
	Reconnects uint64 `json:"reconnects,omitempty"`
	Redials    uint64 `json:"redials,omitempty"`
	// DecodeErrs counts malformed frames: a broken stream drops the
	// connection, an undecodable payload declares the sending peer failed.
	DecodeErrs uint64 `json:"decode_errs,omitempty"`
}

// Snapshot copies the counters.
func (s *TransportStats) Snapshot() TransportSnapshot {
	return TransportSnapshot{
		FramesSent:  s.FramesSent.Load(),
		FramesRecv:  s.FramesRecv.Load(),
		BytesSent:   s.BytesSent.Load(),
		BytesRecv:   s.BytesRecv.Load(),
		Resends:     s.Resends.Load(),
		DupsDropped: s.DupsDropped.Load(),
		Reconnects:  s.Reconnects.Load(),
		Redials:     s.Redials.Load(),
		DecodeErrs:  s.DecodeErrs.Load(),
	}
}

// TransportStats returns the networked transport's counter snapshot, or
// nil for an in-process world.
func (w *World) TransportStats() *TransportSnapshot {
	if nt, ok := w.tr.(*NetTransport); ok {
		s := nt.stats.Snapshot()
		return &s
	}
	return nil
}
