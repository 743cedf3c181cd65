// Fixtures for mpitag's pairing rule, shaped like internal/sim's
// engine: the two ends of each tag are methods of different types and
// the Comm is a struct field, so no single function sees a pair.
package tagpair

import "fixtures/mpi"

const (
	tagFitness = 1
	tagRows    = 2
	tagAck     = 3
)

type natureRank struct{ c *mpi.Comm }

type workerRank struct{ c *mpi.Comm }

func (n *natureRank) recvFitness(w int) error {
	_, err := n.c.Recv(1+w, tagFitness)
	return err
}

// finalize should collect tagRows; it waits for an ack nobody sends.
func (n *natureRank) finalize(w int) error {
	_, err := n.c.Recv(1+w, tagAck) // want `tag tagAck is received but never sent in package tagpair`
	return err
}

func (w *workerRank) sendSegment(seg []float64) error {
	return w.c.Send(0, tagFitness, seg)
}

func (w *workerRank) finalize(rows []float64) error {
	return w.c.Send(0, tagRows, rows) // want `tag tagRows is sent but never received in package tagpair`
}
