package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// This file is the wire half of the transport layer: a length-prefixed
// binary frame format carrying the runtime's point-to-point envelopes and
// the transport's own control messages between processes, plus
// the payload codec for the four payload kinds the runtime carries. Both
// are hand-rolled (fixed layout, explicit bounds) in the style of
// internal/checkpoint's snapshot format: a decoder fed truncated or
// hostile bytes must error — never panic, never allocate unbounded memory.

// wireMagic identifies an egd wire frame ("EGDW").
const wireMagic = 0x45474457

// wireVersion is the protocol version negotiated at handshake; a peer
// speaking a different version is rejected before any data flows.
const wireVersion = 4

// maxFramePayload bounds a frame's payload length, checked by the decoder
// before allocating: a length field beyond it is a corrupt or hostile
// frame, not a big message. 64 MiB bounds any legitimate sim payload.
const maxFramePayload = 1 << 26

// frameKind discriminates wire frames.
type frameKind uint8

const (
	// frameData carries one point-to-point envelope: src/dst ranks, a tag,
	// and an encoded payload (encodePayload).
	frameData frameKind = 1 + iota
	// frameGoodbye announces the sender's rank leaving Run, carrying its
	// exit status so peers attribute the departure (clean shutdown vs.
	// error exit, which aborts them).
	frameGoodbye
	// frameAck answers a goodbye: the stream is in order, so the sender
	// of the ack has processed every frame up to and including it.
	frameAck
	// frameHello opens a connection: rank identity, world size, job id,
	// and protocol version are checked before the connection joins the mesh.
	frameHello
	// frameWelcome accepts a hello, echoing the acceptor's identity.
	frameWelcome
)

// frameKindEnd is one past the last valid frame kind (decoder bound).
const frameKindEnd = frameWelcome + 1

func (k frameKind) String() string {
	switch k {
	case frameData:
		return "data"
	case frameGoodbye:
		return "goodbye"
	case frameAck:
		return "ack"
	case frameHello:
		return "hello"
	case frameWelcome:
		return "welcome"
	}
	return fmt.Sprintf("frameKind(%d)", uint8(k))
}

// frame is one wire message. Src and Dst are ranks; for the control kinds
// (goodbye, hello, welcome, ack) Src is the sender's rank and the other
// fields follow the control-frame layouts below.
type frame struct {
	Kind    frameKind
	Src     int32
	Dst     int32
	Tag     int64
	Payload []byte
}

// frameHeaderLen is the fixed-size prefix of an encoded frame:
// magic(4) version(2) kind(1) pad(1) src(4) dst(4) tag(8) payloadLen(4).
const frameHeaderLen = 28

// appendFrame encodes f onto buf and returns the extended slice.
func appendFrame(buf []byte, f *frame) ([]byte, error) {
	if len(f.Payload) > maxFramePayload {
		return nil, fmt.Errorf("mpi: wire frame payload %d bytes exceeds %d", len(f.Payload), maxFramePayload)
	}
	if f.Kind == 0 || f.Kind >= frameKindEnd {
		return nil, fmt.Errorf("mpi: wire frame kind %d invalid", uint8(f.Kind))
	}
	var h [frameHeaderLen]byte
	binary.BigEndian.PutUint32(h[0:], wireMagic)
	binary.BigEndian.PutUint16(h[4:], wireVersion)
	h[6] = uint8(f.Kind)
	h[7] = 0
	binary.BigEndian.PutUint32(h[8:], uint32(f.Src))
	binary.BigEndian.PutUint32(h[12:], uint32(f.Dst))
	binary.BigEndian.PutUint64(h[16:], uint64(f.Tag))
	binary.BigEndian.PutUint32(h[24:], uint32(len(f.Payload)))
	buf = append(buf, h[:]...)
	buf = append(buf, f.Payload...)
	return buf, nil
}

// encodeFrame encodes f into a fresh buffer.
func encodeFrame(f *frame) ([]byte, error) {
	return appendFrame(make([]byte, 0, frameHeaderLen+len(f.Payload)), f)
}

// readFrame decodes one frame from r. Length fields are bounds-checked
// before any allocation, so a hostile stream cannot force an oversized
// buffer; any malformed header errors out without consuming the rest of
// the stream coherently (callers drop the connection).
func readFrame(r io.Reader) (*frame, error) {
	var h [frameHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, err
	}
	return readFrameBody(h, r)
}

// decodeFrameBytes decodes one frame from a byte slice (the fuzz and test
// entry point), requiring the slice to contain exactly one frame.
func decodeFrameBytes(b []byte) (*frame, error) {
	r := bytes.NewReader(b)
	f, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("mpi: wire frame has %d trailing bytes", r.Len())
	}
	return f, nil
}

func readFrameBody(h [frameHeaderLen]byte, r io.Reader) (*frame, error) {
	if m := binary.BigEndian.Uint32(h[0:]); m != wireMagic {
		return nil, fmt.Errorf("mpi: wire frame magic %#x (want %#x)", m, uint32(wireMagic))
	}
	if v := binary.BigEndian.Uint16(h[4:]); v != wireVersion {
		return nil, fmt.Errorf("mpi: wire protocol version %d (want %d)", v, wireVersion)
	}
	kind := frameKind(h[6])
	if kind == 0 || kind >= frameKindEnd {
		return nil, fmt.Errorf("mpi: wire frame kind %d invalid", h[6])
	}
	if h[7] != 0 {
		return nil, fmt.Errorf("mpi: wire frame pad byte %#x nonzero", h[7])
	}
	// The bound is checked on the unsigned length: converted first, a
	// length past 2^31 would be negative on a 32-bit int and pass it.
	payLen := binary.BigEndian.Uint32(h[24:])
	if payLen > maxFramePayload {
		return nil, fmt.Errorf("mpi: wire frame payload %d bytes exceeds %d", payLen, maxFramePayload)
	}
	f := &frame{
		Kind: kind,
		Src:  int32(binary.BigEndian.Uint32(h[8:])),
		Dst:  int32(binary.BigEndian.Uint32(h[12:])),
		Tag:  int64(binary.BigEndian.Uint64(h[16:])),
	}
	if payLen > 0 {
		f.Payload = make([]byte, payLen)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Payload kinds: the first byte of a non-empty data-frame body. The
// runtime carries exactly what the engine sends — nothing (barrier
// tokens), one float64 (a reduction operand), a []float64 (fitness
// segments, payoff blocks) or a []byte (a message whose layout the sender
// owns). A nil payload is the empty body.
const (
	kindFloat  = 1 + iota // 8 bytes, big-endian IEEE 754 bits
	kindFloats            // 8 bytes per element
	kindBytes             // the bytes themselves
)

// payloadBytes is the encoded size of a payload — the byte count the
// communication counters book, in process and over the wire alike. Any
// other type is an error, which Comm.send returns on both transports.
func payloadBytes(p any) (uint64, error) {
	switch v := p.(type) {
	case nil:
		return 0, nil
	case float64:
		return 1 + 8, nil
	case []float64:
		return 1 + 8*uint64(len(v)), nil
	case []byte:
		return 1 + uint64(len(v)), nil
	}
	return 0, fmt.Errorf("mpi: payload type %T is not nil, float64, []float64 or []byte", p)
}

// encodePayload serialises an envelope payload for a data frame.
func encodePayload(p any) ([]byte, error) {
	n, err := payloadBytes(p)
	if err != nil || n == 0 {
		return nil, err
	}
	b := make([]byte, 1, n)
	switch v := p.(type) {
	case float64:
		b[0] = kindFloat
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	case []float64:
		b[0] = kindFloats
		for _, x := range v {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
		}
	case []byte:
		b[0] = kindBytes
		b = append(b, v...)
	}
	return b, nil
}

// decodePayload deserialises a data-frame body; a kind it does not know or
// a body that is not a whole number of elements is an error.
func decodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	kind, body := b[0], b[1:]
	switch {
	case kind == kindFloat && len(body) == 8:
		return math.Float64frombits(binary.BigEndian.Uint64(body)), nil
	case kind == kindFloats && len(body)%8 == 0:
		v := make([]float64, len(body)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.BigEndian.Uint64(body[8*i:]))
		}
		return v, nil
	case kind == kindBytes:
		return body, nil
	}
	return nil, fmt.Errorf("mpi: wire payload kind %d with a %d-byte body", kind, len(body))
}

// Control frames carry their bodies in the header fields and a raw payload:
//
//   - hello/welcome: Src is the hosted rank, Dst the world size, Payload the
//     job id; all three must match the receiving side's view.
//   - goodbye: Tag holds goodbyeOK on a clean exit; on an error exit Dst is
//     the rank the error blames and Payload its text.
//   - ack: Src is the sender's rank; nothing else.

// goodbyeOK marks a clean exit in a goodbye frame's Tag.
const goodbyeOK = 1
