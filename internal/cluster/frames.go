package cluster

import (
	"fmt"
	"io"
	"slices"

	"riot/internal/codec"
)

// Magic is the remote-frame handshake preamble both sides send before
// their Hello frame (PROTOCOL.md §Remote frames). Version 3 encodes
// every integer little-endian (internal/codec), so peers of earlier
// versions are rejected at the handshake.
const Magic = "RIOTRMT3"

// maxFramePayload bounds one frame's payload length.
const maxFramePayload = 1 << 30

// maxFrameValues is the most float64 values one TileData frame carries
// after its dims. A node refuses to compute or fetch a larger array, so
// a tiny push declaring huge sparse dims cannot make it materialize one.
const maxFrameValues = (maxFramePayload - 16) / 8

// frameChunk is how much of a frame's payload ReadFrame allocates ahead
// of the bytes that have arrived: a length prefix alone never buys more.
const frameChunk = 1 << 20

// FrameType tags a remote frame.
type FrameType uint8

// Remote frame types. Requests are < 0x40; responses are >= 0x40.
const (
	// FrameHello carries the sender's node ID; both sides send one
	// after the magic preamble.
	FrameHello FrameType = 0x01
	// FramePing requests a FramePong liveness reply.
	FramePing FrameType = 0x02
	// FramePong answers FramePing.
	FramePong FrameType = 0x03
	// FrameTilePush ships an operand, or one node's share of one, to a
	// node.
	FrameTilePush FrameType = 0x10
	// FrameExec runs one partial multiply over operands the node holds.
	FrameExec FrameType = 0x11
	// FrameFetch requests a held array's values back.
	FrameFetch FrameType = 0x12
	// FrameDrop frees every held array whose name has a given prefix.
	FrameDrop FrameType = 0x13
	// FrameStats requests the node session's I/O counters.
	FrameStats FrameType = 0x14
	// FrameOK acknowledges a request with no payload to return.
	FrameOK FrameType = 0x40
	// FrameTileData answers FrameFetch with dims + row-major values.
	FrameTileData FrameType = 0x41
	// FrameStatsData answers FrameStats.
	FrameStatsData FrameType = 0x42
	// FrameErr reports a request-level failure; the connection stays up.
	FrameErr FrameType = 0x7F
)

// WriteFrame writes one frame: a 1-byte type, a 4-byte little-endian
// payload length, and the payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("cluster: frame payload %d exceeds limit", len(payload))
	}
	hdr := codec.NewWriter(5)
	hdr.U8(uint8(t))
	hdr.U32(uint32(len(payload)))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Never issue a zero-length write: net.Pipe blocks empty writes
		// until a reader arrives, which deadlocks against a peer that
		// has already consumed the header and moved on.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame. The payload buffer
// starts at one chunk and at most doubles as bytes arrive, so a peer
// that declares a large frame and sends less costs at most a chunk or
// twice what it sent.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	h := codec.NewReader(hdr[:])
	t, n := FrameType(h.U8()), int(h.U32())
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("cluster: frame payload %d exceeds limit", n)
	}
	payload := make([]byte, 0, min(n, frameChunk))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n-len(payload), len(payload)))
		}
		chunk := payload[len(payload):min(cap(payload), n)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return 0, nil, err
		}
		payload = payload[:len(payload)+len(chunk)]
	}
	return t, payload, nil
}

// maxDim bounds each declared matrix dimension: in-tile indexes and
// tile coordinates travel as u32.
const maxDim = 1<<31 - 1

// dims reads a rows, cols pair, each of which must lie in [0, maxDim].
func dims(r *codec.Reader) (rows, cols int64) {
	rows, cols = r.I64(), r.I64()
	if r.Err() == nil && (rows < 0 || cols < 0 || rows > maxDim || cols > maxDim) {
		r.Fail(fmt.Errorf("cluster: implausible dims %dx%d", uint64(rows), uint64(cols)))
	}
	if r.Err() != nil {
		return 0, 0
	}
	return rows, cols
}

// denseDims reads dims that must describe exactly the row-major values
// left in the payload. The bounds keep rows·cols from overflowing, and
// the match is checked before the caller allocates.
func denseDims(r *codec.Reader) (rows, cols int64) {
	rows, cols = dims(r)
	if r.Err() == nil && (r.Len()%8 != 0 || rows*cols != int64(r.Len()/8)) {
		r.Fail(fmt.Errorf("cluster: %dx%d values do not match a %d-byte payload", rows, cols, r.Len()))
		return 0, 0
	}
	return rows, cols
}
