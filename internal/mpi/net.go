package mpi

import (
	"errors"
	"fmt"
	"time"
)

// This file is the world-side half of the networked runtime: where tcp.go
// moves frames between processes, the functions here decide what a frame
// means to the hosted rank's world — routing data frames into (possibly
// shrunk) sub-world inboxes, feeding wire heartbeats into the failure
// detector, attributing peer exits from goodbye frames, and turning an
// unreachable peer into the same rank-failure event an injected fault
// produces. A networked world hosts exactly one rank per process
// (World.self >= 0); everything else about the runtime — collectives,
// eviction, fault plans, metrics — is shared with the in-process path.

// maxPendingWire caps the frames buffered for a sub-world this process has
// not yet built with Shrink. The recovery protocol exchanges a handful of
// messages before both sides hold the sub-world, so a deep backlog means a
// diverged peer, not a slow one; excess frames are dropped.
const maxPendingWire = 4096

// pendingEnv is one buffered wire envelope awaiting its sub-world.
type pendingEnv struct {
	dst int
	e   envelope
}

// NewNetWorld builds the world a networked process hosts: full-size rank
// numbering (so ranks, tags, fault plans, and counters mean the same thing
// as in-process), but only rank t.Self() runs here — the rest live behind
// the transport. Wire the mesh with t.Start() after installing world
// options (EnableEviction, EnableMetrics, fault plan), then run the hosted
// rank with RunLocal.
func NewNetWorld(t *NetTransport) *World {
	w := NewWorld(t.cfg.Size)
	w.tr = t
	w.self = t.cfg.Self
	t.bind(w)
	return w
}

// RunLocal executes body on the hosted rank of a networked world and
// returns its error. It is Run's single-rank counterpart: heartbeats are
// emitted over the wire, the exit status is announced to every peer with a
// goodbye frame (so survivors attribute this rank's departure), and
// pending receives are released on the way out.
func (w *World) RunLocal(body func(c *Comm) error) error {
	if w.root != nil {
		panic("mpi: RunLocal on a shrunk sub-world; run the root world")
	}
	nt, ok := w.tr.(*NetTransport)
	if !ok || w.self < 0 {
		panic("mpi: RunLocal needs a networked world (NewNetWorld)")
	}
	stopHB := w.startHeartbeat()
	err := runBody(body, &Comm{world: w, rank: w.self})
	if w.evict {
		w.rankExited(w.self, err)
	}
	if stopHB != nil {
		stopHB()
	}
	nt.Shutdown(err)
	w.shutdown()
	return err
}

// noteRemoteBeat feeds a wire heartbeat into the failure detector: receipt
// time, in the local monitor's clock, becomes the peer's last-seen beat.
func (w *World) noteRemoteBeat(orig int) {
	if !w.evict || orig < 0 || orig >= w.size {
		return
	}
	w.emu.Lock()
	started := !w.hbStart.IsZero()
	var off int64
	if started {
		off = int64(time.Since(w.hbStart))
	}
	w.emu.Unlock()
	if !started {
		return
	}
	w.lastBeat[orig].Store(off)
	w.noteHeartbeat(orig)
}

// rankFailedNow reports whether the original rank has been declared failed
// (the transport's redial loops stop chasing a peer the detector already
// evicted).
func (w *World) rankFailedNow(orig int) bool {
	return w.evict && orig >= 0 && orig < w.size && w.failedP[orig].Load() != nil
}

// peerLost turns a peer that stayed unreachable past the redial budget
// into a rank failure: eviction-mode worlds evict it (survivors
// Agree+Shrink and continue), abort-mode worlds tear down.
func (w *World) peerLost(orig int, cause error) {
	if orig < 0 || orig >= w.size {
		return
	}
	rf := &RankFailedError{Rank: orig, Err: cause}
	if w.evict {
		w.markFailed(orig, cause)
		return
	}
	w.abortWith(rf)
}

// peerExited attributes a peer's announced departure (its goodbye frame).
// A clean exit is a finished rank; an error exit is recorded and left for
// the failure monitor to declare once the peer's beats go stale — the same
// path a local rank's error exit takes — except that a cascade exit (the
// peer unwound on someone else's failure) is marked so the monitor does
// not evict it.
func (w *World) peerExited(orig int, ok bool, msg string, cascade bool) {
	if orig < 0 || orig >= w.size {
		return
	}
	if !w.evict {
		if !ok {
			w.abortWith(&RankFailedError{Rank: orig, Err: errors.New(msg)})
		}
		return
	}
	var err error
	if !ok {
		if cascade {
			err = fmt.Errorf("mpi: rank %d unwound on a peer failure: %s: %w", orig, msg, ErrAborted)
		} else {
			err = errors.New(msg)
		}
	}
	w.emu.Lock()
	already := w.done[orig]
	w.emu.Unlock()
	if already {
		return
	}
	w.rankExited(orig, err)
	w.netAgreeKick()
}

// deliverRemote routes a decoded data frame into the inbox of rank dst of
// the world named by key ("" is the root; otherwise a Shrink survivor
// list). A frame for a sub-world this process has not built yet is
// buffered and flushed when Shrink creates it — the sender ran Shrink
// first and may legitimately race ahead. A frame from a rank already
// declared failed is dropped, mirroring the send fence on the other side.
func (w *World) deliverRemote(key string, src, dst, tag int, payload any) {
	w.wmu.Lock()
	var target *World
	if key == "" {
		target = w
	} else {
		target = w.subs[key]
	}
	if target == nil {
		if w.pendingWire == nil {
			w.pendingWire = make(map[string][]pendingEnv)
		}
		if q := w.pendingWire[key]; len(q) < maxPendingWire {
			w.pendingWire[key] = append(q, pendingEnv{
				dst: dst,
				e:   envelope{source: src, tag: tag, payload: payload},
			})
		}
		w.wmu.Unlock()
		return
	}
	w.wmu.Unlock()
	if src < 0 || src >= target.size || dst < 0 || dst >= target.size {
		return
	}
	if w.evict && w.failedP[target.origOf(src)].Load() != nil {
		return
	}
	target.boxes[dst].put(envelope{source: src, tag: tag, payload: payload})
}

// flushPendingWire hands a new sub-world the frames that arrived before
// Shrink built it. Shrink calls it while holding the registry lock, so
// buffered frames land ahead of anything deliverRemote routes afterwards —
// per-(source, tag) arrival order is preserved across the handoff.
func (w *World) flushPendingWire(key string, sub *World) {
	q := w.pendingWire[key]
	if len(q) == 0 {
		return
	}
	delete(w.pendingWire, key)
	for _, pe := range q {
		if pe.dst >= 0 && pe.dst < sub.size {
			sub.boxes[pe.dst].put(pe.e)
		}
	}
}
