// Package mpi is a compile-only stand-in for repro/internal/mpi: the
// egdlint analyzers identify the MPI layer structurally (a package
// named "mpi" declaring Comm/World), so fixtures exercise them
// without importing the real runtime.
package mpi

import "time"

const (
	AnySource = -1
	AnyTag    = -1
)

// Message mirrors mpi.Message.
type Message struct {
	Source, Tag int
	Payload     any
}

// Op mirrors the reduction operator enum.
type Op int

// OpSum mirrors mpi.OpSum.
const OpSum Op = 0

// World mirrors mpi.World.
type World struct{}

// NewWorld mirrors mpi.NewWorld.
func NewWorld(n int) *World { return &World{} }

// Run mirrors World.Run.
func (w *World) Run(body func(*Comm) error) error { return nil }

// Comm mirrors mpi.Comm.
type Comm struct{}

func (c *Comm) Rank() int { return 0 }
func (c *Comm) Size() int { return 1 }

func (c *Comm) Send(dst, tag int, payload any) error { return nil }
func (c *Comm) Recv(src, tag int) (Message, error)   { return Message{}, nil }
func (c *Comm) RecvTimeout(src, tag int, timeout time.Duration) (Message, error) {
	return Message{}, nil
}

func (c *Comm) Bcast(root int, payload any) (any, error)               { return nil, nil }
func (c *Comm) Reduce(root int, value float64, op Op) (float64, error) { return 0, nil }
func (c *Comm) Gather(root int, payload any) ([]any, error)            { return nil, nil }
func (c *Comm) Barrier() error                                         { return nil }
