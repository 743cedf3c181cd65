package mpi

import "errors"

// This file is the world-side half of the networked runtime: where tcp.go
// moves frames between processes, the functions here decide what a frame
// means to the hosted rank's world — routing data frames into the hosted
// rank's inbox, and turning a peer's error exit (its goodbye frame) or a
// failed connection into the same abort an injected fault produces. A
// networked world hosts exactly one rank per process (World.self >= 0);
// everything else about the runtime — collectives, fault plans, metrics —
// is shared with the in-process path.

// NewNetWorld builds the world a networked process hosts: full-size rank
// numbering (so ranks, tags, fault plans, and counters mean the same thing
// as in-process), but only rank t.Self() runs here — the rest live behind
// the transport. Wire the mesh with t.Start() after installing world
// options (EnableMetrics, fault plan, receive deadline), then run the
// hosted rank with RunLocal.
func NewNetWorld(t *NetTransport) *World {
	w := NewWorld(t.cfg.Size)
	w.tr = t
	w.self = t.cfg.Self
	t.bind(w)
	return w
}

// RunLocal executes body on the hosted rank of a networked world and
// returns its error. It is Run's single-rank counterpart: the exit status
// is announced to every peer with a goodbye frame (so a peer attributes an
// error exit to this rank), and pending receives are released on the way
// out.
func (w *World) RunLocal(body func(c *Comm) error) error {
	nt, ok := w.tr.(*NetTransport)
	if !ok || w.self < 0 {
		panic("mpi: RunLocal needs a networked world (NewNetWorld)")
	}
	err := runBody(body, &Comm{world: w, rank: w.self})
	nt.Shutdown(err)
	w.shutdown()
	return err
}

// peerLost turns a peer whose connection failed before its goodbye — it
// ended, a write to it failed, or it carried a frame that does not decode —
// into a rank failure: the world aborts.
func (w *World) peerLost(rank int, cause error) {
	if rank < 0 || rank >= w.size {
		return
	}
	w.abortWith(&RankFailedError{Rank: rank, Err: cause})
}

// peerExited attributes a peer's announced departure (its goodbye frame):
// a clean exit is a finished rank; an error exit aborts the world with the
// peer's error text, blaming the rank the peer blamed — itself, or the rank
// whose failure it unwound on — so a cascade does not hide the first
// failure.
func (w *World) peerExited(rank, blamed int, ok bool, msg string) {
	if ok || rank < 0 || rank >= w.size {
		return
	}
	if blamed < 0 || blamed >= w.size {
		blamed = rank
	}
	w.abortWith(&RankFailedError{Rank: blamed, Err: errors.New(msg)})
}

// deliverRemote routes a decoded data frame into the inbox of rank dst.
func (w *World) deliverRemote(src, dst, tag int, payload any) {
	if src < 0 || src >= w.size || dst < 0 || dst >= w.size {
		return
	}
	w.boxes[dst].put(envelope{source: src, tag: tag, payload: payload})
}
