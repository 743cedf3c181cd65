// Fixtures for mpisession: point-to-point tags sent on one side of a
// Rank() branch must be received on a peer side, or the ranks deadlock.
package session

import (
	"time"

	"fixtures/mpi"
)

const (
	tagFitness = 1
	tagRows    = 2
	tagExtra   = 7
)

// engineMirror mirrors internal/sim's RunParallel split: Nature (rank 0)
// receives exactly what every worker sends. Symmetric, so clean.
func engineMirror(c *mpi.Comm, rows []int) {
	if c.Rank() == 0 {
		for w := 1; w < c.Size(); w++ {
			_, _ = c.Recv(mpi.AnySource, tagFitness)
			_, _ = c.Recv(w, tagRows)
		}
	} else {
		_ = c.Send(0, tagFitness, 1.0)
		_ = c.Send(0, tagRows, rows)
	}
}

// natureOrphanRecv is engineMirror with the worker's tagRows send
// dropped — the mutation the analyzer exists to catch: Nature blocks on
// an inbox no one feeds.
func natureOrphanRecv(c *mpi.Comm) {
	if c.Rank() == 0 {
		_, _ = c.Recv(1, tagFitness)
		_, _ = c.Recv(1, tagRows) // want `Recv of tag tagRows from 1 .* no matching send on any peer rank's side`
	} else {
		_ = c.Send(0, tagFitness, 1.0)
	}
}

// workerOrphanSend is the opposite mutation: Nature's receive is gone,
// so the worker's Send parks on a full channel forever.
func workerOrphanSend(c *mpi.Comm) {
	if c.Rank() == 0 {
		_, _ = c.Recv(1, tagFitness)
	} else {
		_ = c.Send(0, tagFitness, 1.0)
		_ = c.Send(0, tagRows, nil) // want `Send of tag tagRows to 0 .* no matching receive on any peer rank's side`
	}
}

// selfSession puts both halves on the rank-0 side: a role pinned to one
// rank cannot meet itself, so both operations hang.
func selfSession(c *mpi.Comm) {
	if c.Rank() == 0 {
		_ = c.Send(1, tagExtra, nil) // want `Send of tag tagExtra .* no matching receive`
		_, _ = c.Recv(1, tagExtra)   // want `Recv of tag tagExtra .* no matching send`
	}
}

// workerExchange is the same shape on the != 0 side, which spans several
// ranks: workers may exchange among themselves. Clean.
func workerExchange(c *mpi.Comm) {
	if c.Rank() != 0 {
		_ = c.Send((c.Rank()%2)+1, tagExtra, nil)
		_, _ = c.Recv(mpi.AnySource, tagExtra)
	}
}

// switchRoles: switch-on-rank clauses pair like if/else arms, and a
// single-constant case is a pinned rank.
func switchRoles(c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		_, _ = c.Recv(mpi.AnySource, tagFitness)
		_, _ = c.Recv(mpi.AnySource, tagExtra) // want `Recv of tag tagExtra .* no matching send`
	default:
		_ = c.Send(0, tagFitness, nil)
	}
}

// loopSession: operations inside loop bodies still pair across sides —
// the loop condition is not a rank guard. Clean.
func loopSession(c *mpi.Comm) {
	if c.Rank() == 0 {
		for w := 1; w < c.Size(); w++ {
			_, _ = c.Recv(w, tagRows)
		}
	} else {
		_ = c.Send(0, tagRows, nil)
	}
}

// timedPair: RecvTimeout participates like Recv. Clean.
func timedPair(c *mpi.Comm, d time.Duration) {
	if c.Rank() == 0 {
		_, _ = c.RecvTimeout(1, tagRows, d)
	} else {
		_ = c.Send(0, tagRows, nil)
	}
}

// closureSide: a closure defined under a rank branch runs on that side;
// its orphan receive is still the rank-0 side's obligation.
func closureSide(c *mpi.Comm) {
	if c.Rank() == 0 {
		recv := func() {
			_, _ = c.Recv(1, tagExtra) // want `Recv of tag tagExtra .* no matching send`
		}
		recv()
	}
}

// dynamicTags: a computed tag (tagBase+w, as the real engine shards
// row exchanges) matches anything — exactly mpitag's resolution rule.
func dynamicTags(c *mpi.Comm, base int) {
	if c.Rank() == 0 {
		for w := 1; w < c.Size(); w++ {
			_, _ = c.Recv(w, base+w)
		}
	}
}

// wildcardTag: AnyTag receives are match-all and never flagged.
func wildcardTag(c *mpi.Comm) {
	if c.Rank() == 0 {
		_, _ = c.Recv(mpi.AnySource, mpi.AnyTag)
	}
}

// escapes hands the comm to a helper: the peer's half of the protocol
// may live there, so the whole function is skipped.
func escapes(c *mpi.Comm) {
	if c.Rank() == 0 {
		_, _ = c.Recv(1, tagExtra)
	}
	helper(c)
}

func helper(c *mpi.Comm) {}

// returned: a comm flowing out through a return escapes the same way.
func returned(c *mpi.Comm) *mpi.Comm {
	if c.Rank() == 0 {
		_, _ = c.Recv(1, tagExtra)
	}
	return c
}

// deadSide: operations in unreachable code neither check nor satisfy a
// session. Clean — the orphan receive can never run.
func deadSide(c *mpi.Comm) {
	if c.Rank() == 0 {
		return
		_, _ = c.Recv(1, tagExtra)
	}
}

// annotated: a deliberate half-session silenced with a reason (the peer
// half lives in another binary).
func annotated(c *mpi.Comm) {
	if c.Rank() == 0 {
		_ = c.Send(1, tagExtra, nil) //egdlint:allow mpisession peer half lives in the launcher binary
	}
}
