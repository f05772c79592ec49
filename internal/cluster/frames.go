package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic is the remote-frame handshake preamble both sides send before
// their Hello frame (PROTOCOL.md §Remote frames). Version 2 changed the
// TilePush payload to a per-kind body (sparse operands travel as their
// nonzeros), so version-1 peers are rejected at the handshake.
const Magic = "RIOTRMT2"

// maxFramePayload bounds one frame's payload so a corrupt length prefix
// cannot ask a node to allocate unbounded memory.
const maxFramePayload = 1 << 30

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

// WriteFrame writes one frame: a 1-byte type, a 4-byte big-endian
// payload length, and the payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	var hdr [5]byte
	hdr[0] = byte(t)
	if len(payload) > maxFramePayload {
		return fmt.Errorf("cluster: frame payload %d exceeds limit", len(payload))
	}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
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

// ReadFrame reads one frame written by WriteFrame.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("cluster: frame payload %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return FrameType(hdr[0]), payload, nil
}

// wbuf builds a frame payload. Strings are a 4-byte big-endian length
// plus UTF-8 bytes; integers are 4- or 8-byte big-endian; float64 values
// are 8-byte little-endian IEEE 754 bits (the host layout of the tiles).
type wbuf struct{ b []byte }

func (w *wbuf) str(s string) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(s)))
	w.b = append(w.b, n[:]...)
	w.b = append(w.b, s...)
}

func (w *wbuf) u8(v uint8) { w.b = append(w.b, v) }

func (w *wbuf) u32(v uint32) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], v)
	w.b = append(w.b, n[:]...)
}

func (w *wbuf) u64(v uint64) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], v)
	w.b = append(w.b, n[:]...)
}

func (w *wbuf) f64s(vals []float64) {
	off := len(w.b)
	w.b = append(w.b, make([]byte, 8*len(vals))...)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(w.b[off+8*i:], math.Float64bits(v))
	}
}

// rbuf parses a frame payload; the first decode error sticks.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail() bool { return r.err != nil }

func (r *rbuf) need(n int) bool {
	if r.err == nil && len(r.b) < n {
		r.err = fmt.Errorf("cluster: truncated frame payload")
	}
	return r.err == nil
}

func (r *rbuf) str() string {
	if !r.need(4) {
		return ""
	}
	n := int(binary.BigEndian.Uint32(r.b))
	r.b = r.b[4:]
	if !r.need(n) {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *rbuf) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *rbuf) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *rbuf) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// f64s decodes n values. The count is checked against the bytes left
// before anything is multiplied or allocated, so a corrupt count can
// neither overflow 8·n nor drive a huge allocation.
func (r *rbuf) f64s(n int) []float64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)/8 {
		r.err = fmt.Errorf("cluster: frame payload holds %d bytes, not %d values", len(r.b), n)
		return nil
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return vals
}

// maxDim bounds each declared matrix dimension: in-tile indexes and
// tile coordinates travel as u32.
const maxDim = 1<<31 - 1

// dims reads a rows, cols pair, each of which must lie in [0, maxDim].
func (r *rbuf) dims() (rows, cols int64) {
	rows, cols = int64(r.u64()), int64(r.u64())
	if r.err == nil && (rows < 0 || cols < 0 || rows > maxDim || cols > maxDim) {
		r.err = fmt.Errorf("cluster: implausible dims %dx%d", uint64(rows), uint64(cols))
	}
	if r.err != nil {
		return 0, 0
	}
	return rows, cols
}

// denseDims reads dims that must describe exactly the row-major values
// left in the payload. The bounds keep rows·cols from overflowing, and
// the match is checked before the caller allocates.
func (r *rbuf) denseDims() (rows, cols int64) {
	rows, cols = r.dims()
	if r.err == nil && (len(r.b)%8 != 0 || rows*cols != int64(len(r.b)/8)) {
		r.err = fmt.Errorf("cluster: %dx%d values do not match a %d-byte payload", rows, cols, len(r.b))
		return 0, 0
	}
	return rows, cols
}
