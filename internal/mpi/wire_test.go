package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestWireFrameRoundTrip(t *testing.T) {
	frames := []*frame{
		{Kind: frameData, Seq: 1, Src: 2, Dst: 0, Tag: 7, Payload: []byte("hello")},
		{Kind: frameData, Seq: 42, Src: 0, Dst: 3, Tag: 1 << 30, Payload: nil},
		{Kind: frameGoodbye, Seq: 9, Src: 3, Dst: 1, Payload: []byte{1, 2, 3}},
		{Kind: frameGoodbye, Seq: 10, Src: 2, Tag: goodbyeOK},
		{Kind: frameAck, Seq: 1234567},
		{Kind: frameHello, Src: 1, Payload: []byte("id")},
		{Kind: frameWelcome, Src: 2},
	}
	for _, f := range frames {
		b, err := encodeFrame(f)
		if err != nil {
			t.Fatalf("encode %v: %v", f.Kind, err)
		}
		got, err := decodeFrameBytes(b)
		if err != nil {
			t.Fatalf("decode %v: %v", f.Kind, err)
		}
		if got.Kind != f.Kind || got.Seq != f.Seq || got.Src != f.Src ||
			got.Dst != f.Dst || got.Tag != f.Tag ||
			!bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip %v: got %+v want %+v", f.Kind, got, f)
		}
	}
}

func TestWireFrameStreamed(t *testing.T) {
	var buf bytes.Buffer
	want := []*frame{
		{Kind: frameData, Seq: 1, Src: 0, Dst: 1, Tag: 3, Payload: []byte("a")},
		{Kind: frameAck, Seq: 1},
		{Kind: frameData, Seq: 2, Src: 0, Dst: 1, Tag: 3, Payload: []byte("bb")},
	}
	for _, f := range want {
		b, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	for i, f := range want {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != f.Kind || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, f)
		}
	}
	if _, err := readFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after stream end: %v, want EOF", err)
	}
}

func TestWireFrameEncodeRejectsInvalid(t *testing.T) {
	if _, err := encodeFrame(&frame{Kind: 0}); err == nil {
		t.Fatal("kind 0 encoded")
	}
	if _, err := encodeFrame(&frame{Kind: frameKindEnd}); err == nil {
		t.Fatal("out-of-range kind encoded")
	}
	if _, err := encodeFrame(&frame{Kind: frameData, Payload: make([]byte, maxFramePayload+1)}); err == nil {
		t.Fatal("oversized payload encoded")
	}
}

func TestWireFrameDecodeRejectsCorruption(t *testing.T) {
	good, err := encodeFrame(&frame{Kind: frameData, Seq: 1, Src: 0, Dst: 1, Tag: 2, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mut func(b []byte) []byte) {
		b := mut(append([]byte(nil), good...))
		if _, err := decodeFrameBytes(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("bad version", func(b []byte) []byte { b[5] = 99; return b })
	corrupt("bad kind", func(b []byte) []byte { b[6] = 200; return b })
	corrupt("truncated header", func(b []byte) []byte { return b[:frameHeaderLen-1] })
	corrupt("truncated body", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0xAB) })
	corrupt("oversized payload len", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[32:], maxFramePayload+1)
		return b
	})
	corrupt("payload len past 2^31", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[32:], 1<<31)
		return b
	})
	corrupt("payload len beyond body", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[32:], 1<<20)
		return b
	})
}

// FuzzWireFrame hammers the frame decoder with arbitrary bytes: it must
// return an error or a frame that re-encodes to the identical bytes, and a
// data frame's payload must in turn decode-or-error and re-encode
// identically — never panic, and never allocate beyond the declared length limits (the
// bounds checks run before any allocation).
func FuzzWireFrame(f *testing.F) {
	seed, _ := encodeFrame(&frame{Kind: frameData, Seq: 3, Src: 1, Dst: 0, Tag: 5, Payload: []byte("p")})
	f.Add(seed)
	for _, v := range []any{2.5, []float64{1, math.NaN()}, []byte("msg")} {
		body, _ := encodePayload(v)
		withBody, _ := encodeFrame(&frame{Kind: frameData, Seq: 4, Src: 0, Dst: 1, Tag: 1 << 30, Payload: body})
		f.Add(withBody)
	}
	f.Add(seed[:frameHeaderLen])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderLen))
	big := append([]byte(nil), seed...)
	binary.BigEndian.PutUint32(big[32:], 1<<31)
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrameBytes(data)
		if err != nil {
			return
		}
		re, err := encodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data)
		}
		if fr.Kind != frameData {
			return
		}
		// A data frame's payload must itself decode or error, and a decoded
		// payload re-encodes to the same body (NaN bit patterns included).
		v, err := decodePayload(fr.Payload)
		if err != nil {
			return
		}
		body, err := encodePayload(v)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(body, fr.Payload) {
			t.Fatalf("payload re-encode mismatch:\n got %x\nwant %x", body, fr.Payload)
		}
	})
}

// TestWirePayloadRoundTrip pins the payload codec: each of the four kinds
// the runtime carries survives the round trip, the size the counters book
// is the size of the encoding, and everything else is refused — other types
// at encode time, unknown kinds and ragged bodies at decode time.
func TestWirePayloadRoundTrip(t *testing.T) {
	for _, v := range []any{
		nil, float64(3.5), math.Inf(-1), []float64{}, []float64{1, -2, math.MaxFloat64},
		[]byte{}, []byte{9, 0, 255},
	} {
		b, err := encodePayload(v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		if n, err := payloadBytes(v); err != nil || n != uint64(len(b)) {
			t.Fatalf("payloadBytes(%#v) = %d, %v; encoding is %d bytes", v, n, err, len(b))
		}
		got, err := decodePayload(b)
		if err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%T: got %#v want %#v", v, got, v)
		}
	}
	if b, _ := encodePayload(nil); b != nil {
		t.Fatalf("nil payload encodes to %x, want the empty body", b)
	}
	for _, v := range []any{int(7), "s", []int{3, 4}, true, []any{1.0}, float32(1), struct{}{}} {
		if _, err := encodePayload(v); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", v)) {
			t.Errorf("encodePayload(%T) = %v, want an error naming the type", v, err)
		}
	}
	for name, b := range map[string][]byte{
		"kind 0":        {0},
		"unknown kind":  {0xde, 0xad, 0xbe, 0xef},
		"short float":   {kindFloat, 1, 2, 3},
		"long float":    append([]byte{kindFloat}, make([]byte, 9)...),
		"ragged floats": append([]byte{kindFloats}, make([]byte, 12)...),
	} {
		if v, err := decodePayload(b); err == nil {
			t.Errorf("%s: decoded to %#v", name, v)
		}
	}
}
