package cluster

import (
	"bytes"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"riot"
	"riot/internal/codec"
)

// dialNode serves a fresh node over net.Pipe and performs the
// coordinator's half of the handshake, returning the coordinator end.
func dialNode(t *testing.T) net.Conn {
	t.Helper()
	sess := riot.NewSession(riot.Config{Workers: 1})
	node := NewNode("node0", sess)
	coordEnd, nodeEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		node.ServeConn(nodeEnd)
	}()
	t.Cleanup(func() {
		coordEnd.Close()
		<-done
		sess.Close()
	})
	coordEnd.SetDeadline(time.Now().Add(10 * time.Second))
	var h codec.Writer
	h.Str("coordinator")
	if _, err := coordEnd.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(coordEnd, FrameHello, h.Bytes()); err != nil {
		t.Fatal(err)
	}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(coordEnd, magic); err != nil || string(magic) != Magic {
		t.Fatalf("node magic %q (%v)", magic, err)
	}
	if ft, _, err := ReadFrame(coordEnd); err != nil || ft != FrameHello {
		t.Fatalf("node hello: type %#x err %v", ft, err)
	}
	return coordEnd
}

// roundTrip sends one request frame and reads the response.
func roundTrip(t *testing.T, conn net.Conn, ft FrameType, payload []byte) (FrameType, []byte) {
	t.Helper()
	if err := WriteFrame(conn, ft, payload); err != nil {
		t.Fatal(err)
	}
	rt, body, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("no response (the node died?): %v", err)
	}
	return rt, body
}

// corruptPush is one malformed TilePush payload and a substring its Err
// answer must carry.
type corruptPush struct {
	name    string
	payload []byte
	want    string
}

// densePush builds a dense push named "d" declaring rows x cols and
// carrying vals zero values.
func densePush(rows, cols uint64, vals int) []byte {
	var w codec.Writer
	w.Str("d")
	w.U8(kindDense)
	w.U64(rows)
	w.U64(cols)
	w.F64s(make([]float64, vals))
	return w.Bytes()
}

// sparsePush builds a sparse push named "s" of one 4x4 matrix whose
// single tile carries the given nnz, indexes and values.
func sparsePush(side, tiles, ti, nnz uint32, idx []uint32, vals []float64) []byte {
	var w codec.Writer
	w.Str("s")
	w.U8(kindSparse)
	w.U64(4)
	w.U64(4)
	w.U32(side)
	w.U32(tiles)
	w.U32(ti)
	w.U32(0)
	w.U32(nnz)
	for _, x := range idx {
		w.U32(x)
	}
	w.F64s(vals)
	return w.Bytes()
}

// validSparsePush is a well-formed sparse push: 2 at (0,1), -3 at (1,3).
func validSparsePush() []byte {
	return sparsePush(32, 1, 0, 2, []uint32{1, 35}, []float64{2, -3})
}

// corruptPushes returns the malformed TilePush payloads. The first is
// the exact 38-byte frame that used to overflow 8·n in the decoder and
// panic riot-serve -remote (rows=2^61, cols=1).
func corruptPushes() []corruptPush {
	var overflow codec.Writer // name, kind, rows, cols, offset
	overflow.Str("q1.band.0")
	overflow.U8(kindDense)
	overflow.U64(1 << 61)
	overflow.U64(1)
	overflow.U64(0)
	var huge codec.Writer
	huge.Write(overflow.Bytes()[:14]) // name + kind
	huge.U64(math.MaxUint64)
	huge.U64(math.MaxUint64)
	var hugeGrid codec.Writer
	hugeGrid.Str("s")
	hugeGrid.U8(kindSparse)
	hugeGrid.U64(maxDim)
	hugeGrid.U64(maxDim)
	hugeGrid.U32(32)
	hugeGrid.U32(0)
	return []corruptPush{
		{"overflow-38-bytes", overflow.Bytes(), "dims"},
		{"dims-overflow-int64", huge.Bytes(), "dims"},
		{"dense-count-mismatch", densePush(3, 3, 8), "do not match"},
		{"dense-trailing", densePush(2, 2, 5), "do not match"},
		{"unknown-kind", append(append([]byte{}, overflow.Bytes()[:13]...), 9), "kind"},
		{"truncated", overflow.Bytes()[:20], "truncated"},
		{"sparse-side-mismatch", sparsePush(16, 1, 0, 1, []uint32{0}, []float64{1}), "side"},
		{"sparse-nnz-too-big", sparsePush(32, 1, 0, 17, []uint32{0}, []float64{1}), "nonzeros"},
		{"sparse-nnz-past-payload", sparsePush(32, 1, 0, 3, []uint32{0}, []float64{1}), "nonzeros"},
		{"sparse-index-outside-tile", sparsePush(32, 1, 0, 1, []uint32{4}, []float64{1}), "index"},
		{"sparse-index-out-of-order", sparsePush(32, 1, 0, 2, []uint32{1, 0}, []float64{1, 2}), "index"},
		{"sparse-explicit-zero", sparsePush(32, 1, 0, 1, []uint32{0}, []float64{0}), "zero"},
		{"sparse-tile-outside-grid", sparsePush(32, 1, 1, 1, []uint32{0}, []float64{1}), "grid"},
		{"sparse-tile-count-lies", sparsePush(32, 1<<30, 0, 1, []uint32{0}, []float64{1}), "tiles"},
		{"sparse-huge-grid", hugeGrid.Bytes(), "grid"},
	}
}

// A corrupt TilePush must be answered with Err, never crash the node:
// the 38-byte overflow frame plus malformed dense and sparse bodies.
// After each, the same connection still answers Ping.
func TestNodeRejectsCorruptTilePush(t *testing.T) {
	cases := corruptPushes()
	if n := len(cases[0].payload); n != 38 {
		t.Fatalf("crash frame is %d bytes, want 38", n)
	}
	conn := dialNode(t)
	for _, tc := range cases {
		ft, body := roundTrip(t, conn, FrameTilePush, tc.payload)
		if ft != FrameErr {
			t.Fatalf("%s: answered %#x, want Err", tc.name, ft)
		}
		if msg := codec.NewReader(body).Str(); !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, msg, tc.want)
		}
		if ft, _ := roundTrip(t, conn, FramePing, nil); ft != FramePong {
			t.Fatalf("%s: ping after the bad frame answered %#x", tc.name, ft)
		}
	}
	// A well-formed sparse push is still accepted on the same connection.
	if ft, body := roundTrip(t, conn, FrameTilePush, validSparsePush()); ft != FrameOK {
		t.Fatalf("valid sparse push answered %#x: %q", ft, body)
	}
	var f codec.Writer
	f.Str("s")
	ft, body := roundTrip(t, conn, FrameFetch, f.Bytes())
	if ft != FrameTileData {
		t.Fatalf("fetch answered %#x", ft)
	}
	r := codec.NewReader(body)
	rows, cols := denseDims(r)
	got := r.F64s(int(rows * cols))
	want := []float64{0, 2, 0, 0, 0, 0, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0}
	if r.Err() != nil || rows != 4 || cols != 4 {
		t.Fatalf("fetch: %dx%d (%v)", rows, cols, r.Err())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fetched %v, want %v", got, want)
		}
	}
}

// A push may declare sparse dims far larger than its bytes; the node
// must refuse to materialize such an array for Fetch or Exec (its values
// could never travel in one frame) instead of allocating rows·cols
// values. Before the check, a 44-byte push plus a fetch asked for 2 GiB.
func TestNodeRefusesArraysLargerThanAFrame(t *testing.T) {
	var w codec.Writer
	w.Str("big")
	w.U8(kindSparse)
	w.U64(1 << 14)
	w.U64(1 << 14)
	w.U32(32)
	w.U32(0) // no tiles: every value is zero
	conn := dialNode(t)
	if ft, body := roundTrip(t, conn, FrameTilePush, w.Bytes()); ft != FrameOK {
		t.Fatalf("push answered %#x: %q", ft, codec.NewReader(body).Str())
	}
	var fetch codec.Writer
	fetch.Str("big")
	var exec codec.Writer
	for _, s := range []string{"prod", "big", "big", "standard"} {
		exec.Str(s)
	}
	for _, req := range []struct {
		ft      FrameType
		payload []byte
	}{{FrameFetch, fetch.Bytes()}, {FrameExec, exec.Bytes()}} {
		ft, body := roundTrip(t, conn, req.ft, req.payload)
		if msg := codec.NewReader(body).Str(); ft != FrameErr || !strings.Contains(msg, "fit in one frame") {
			t.Fatalf("request %#x answered %#x %q, want Err about the frame limit", req.ft, ft, msg)
		}
	}
	if ft, _ := roundTrip(t, conn, FramePing, nil); ft != FramePong {
		t.Fatalf("ping answered %#x", ft)
	}
}

// frameBytes returns one encoded frame.
func frameBytes(ft FrameType, payload []byte) []byte {
	var b bytes.Buffer
	WriteFrame(&b, ft, payload)
	return b.Bytes()
}

// completeFrames pads data so that its last frame is whole and returns
// the padded stream with the number of frames in it. hangUp reports
// that the connection ends inside the stream instead: a frame declares
// more than the frame limit (the node drops the connection) or more
// bytes than are worth padding (the test hangs up mid-frame). costly
// reports an Exec or Fetch after a push declaring more than 2^10 rows
// or columns: a legal request whose answer can reach 2^27 values, more
// than a fuzz iteration may allocate.
func completeFrames(data []byte) (stream []byte, frames int, hangUp, costly bool) {
	stream = append([]byte(nil), data...)
	big := false
	for off := 0; off < len(stream); frames++ {
		if short := 5 - (len(stream) - off); short > 0 {
			stream = append(stream, make([]byte, short)...)
		}
		n := int(codec.NewReader(stream[off+1 : off+5]).U32())
		pad := off + 5 + n - len(stream)
		if n > maxFramePayload || pad > 1<<16 {
			return stream, frames, true, costly
		}
		stream = append(stream, make([]byte, max(pad, 0))...)
		switch FrameType(stream[off]) {
		case FrameTilePush:
			r := codec.NewReader(stream[off+5 : off+5+n])
			r.Str()
			r.U8()
			rows, cols := r.U64(), r.U64()
			big = big || rows > 1<<10 || cols > 1<<10
		case FrameExec, FrameFetch:
			costly = costly || big
		}
		off += 5 + n
	}
	return stream, frames, false, costly
}

// FuzzNodeFrames feeds arbitrary bytes to a node after a valid
// handshake. The node must never panic. It answers each complete frame
// with one frame and then still answers Ping — or, when the stream ends
// mid-frame or declares a frame over the limit, it closes the connection
// having answered every frame before that one.
func FuzzNodeFrames(f *testing.F) {
	for _, tc := range corruptPushes() {
		f.Add(frameBytes(FrameTilePush, tc.payload))
	}
	var fetchS, exec codec.Writer
	fetchS.Str("s")
	for _, s := range []string{"p", "d", "d", "standard"} {
		exec.Str(s)
	}
	var valid []byte
	valid = append(valid, frameBytes(FrameTilePush, densePush(2, 2, 4))...)
	valid = append(valid, frameBytes(FrameTilePush, validSparsePush())...)
	valid = append(valid, frameBytes(FrameFetch, fetchS.Bytes())...)
	valid = append(valid, frameBytes(FrameExec, exec.Bytes())...)
	valid = append(valid, frameBytes(FrameStats, nil)...)
	f.Add(valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		stream, frames, hangUp, costly := completeFrames(data)
		if costly {
			t.Skip("materializes an array too large for a fuzz iteration")
		}
		conn := dialNode(t)
		if !hangUp {
			stream = append(stream, frameBytes(FramePing, nil)...)
		}
		answers := make(chan FrameType, frames+2)
		go func() {
			defer close(answers)
			for {
				ft, _, err := ReadFrame(conn)
				if err != nil {
					return
				}
				answers <- ft
			}
		}()
		_, err := conn.Write(stream)
		if hangUp {
			// The node may drop the connection before taking every byte.
			conn.Close()
			n := 0
			for range answers {
				n++
			}
			if n != frames {
				t.Fatalf("node answered %d of the %d frames before the hang-up", n, frames)
			}
			return
		}
		if err != nil {
			t.Fatalf("node stopped reading: %v", err)
		}
		for i := 0; i <= frames; i++ {
			ft, ok := <-answers
			if !ok {
				t.Fatalf("node closed the connection after %d of %d answers", i, frames+1)
			}
			if i == frames && ft != FramePong {
				t.Fatalf("ping after %d frames answered %#x", frames, ft)
			}
		}
	})
}
