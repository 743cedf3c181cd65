// Fixtures for mpitag's wire-protocol audit: frame-kind constants are
// wire-format bytes — unique, nonzero, within uint8 — and the
// frameKindEnd sentinel sits one past the highest kind.
package mpi

type frameKind uint8

const (
	frameData frameKind = 1 + iota
	frameGoodbye
	frameAck
)

const (
	frameZero  frameKind = 0 // want `wire frame kind frameZero has value 0`
	frameClash frameKind = 2 // want `wire frame kind frameClash duplicates value 2 of frameGoodbye`
)

const frameKindEnd = frameAck + 2 // want `frameKindEnd is 5, want 4`
