package cluster

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"riot"
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
	var h wbuf
	h.str("coordinator")
	if _, err := coordEnd.Write([]byte(Magic)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(coordEnd, FrameHello, h.b); err != nil {
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

// A corrupt TilePush must be answered with Err, never crash the node:
// the exact 38-byte frame that used to overflow 8·n in the decoder and
// panic riot-serve -remote (rows=2^61, cols=1), plus malformed sparse
// bodies. After each, the same connection still answers Ping.
func TestNodeRejectsCorruptTilePush(t *testing.T) {
	var overflow wbuf // the original crash: name, kind, rows, cols, offset
	overflow.str("q1.band.0")
	overflow.u8(kindDense)
	overflow.u64(1 << 61)
	overflow.u64(1)
	overflow.u64(0)
	if len(overflow.b) != 38 {
		t.Fatalf("crash frame is %d bytes, want 38", len(overflow.b))
	}

	dense := func(rows, cols uint64, vals int) []byte {
		var w wbuf
		w.str("d")
		w.u8(kindDense)
		w.u64(rows)
		w.u64(cols)
		w.f64s(make([]float64, vals))
		return w.b
	}
	// sparse builds a sparse push of one 4x4 matrix (tile side 32) whose
	// single tile carries the given nnz, indexes and values.
	sparse := func(side, tiles, ti, nnz uint32, idx []uint32, vals []float64) []byte {
		var w wbuf
		w.str("s")
		w.u8(kindSparse)
		w.u64(4)
		w.u64(4)
		w.u32(side)
		w.u32(tiles)
		w.u32(ti)
		w.u32(0)
		w.u32(nnz)
		for _, x := range idx {
			w.u32(x)
		}
		w.f64s(vals)
		return w.b
	}
	huge := make([]byte, 0, 64)
	huge = append(huge, overflow.b[:14]...) // name + kind
	huge = binary.BigEndian.AppendUint64(huge, math.MaxUint64)
	huge = binary.BigEndian.AppendUint64(huge, math.MaxUint64)

	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"overflow-38-bytes", overflow.b, "dims"},
		{"dims-overflow-int64", huge, "dims"},
		{"dense-count-mismatch", dense(3, 3, 8), "do not match"},
		{"dense-trailing", dense(2, 2, 5), "do not match"},
		{"unknown-kind", append(append([]byte{}, overflow.b[:13]...), 9), "kind"},
		{"truncated", overflow.b[:20], "truncated"},
		{"sparse-side-mismatch", sparse(16, 1, 0, 1, []uint32{0}, []float64{1}), "side"},
		{"sparse-nnz-too-big", sparse(32, 1, 0, 17, []uint32{0}, []float64{1}), "nonzeros"},
		{"sparse-nnz-past-payload", sparse(32, 1, 0, 3, []uint32{0}, []float64{1}), "nonzeros"},
		{"sparse-index-outside-tile", sparse(32, 1, 0, 1, []uint32{4}, []float64{1}), "index"},
		{"sparse-index-out-of-order", sparse(32, 1, 0, 2, []uint32{1, 0}, []float64{1, 2}), "index"},
		{"sparse-explicit-zero", sparse(32, 1, 0, 1, []uint32{0}, []float64{0}), "zero"},
		{"sparse-tile-outside-grid", sparse(32, 1, 1, 1, []uint32{0}, []float64{1}), "grid"},
		{"sparse-tile-count-lies", sparse(32, 1<<30, 0, 1, []uint32{0}, []float64{1}), "tiles"},
		{"sparse-huge-grid", func() []byte {
			var w wbuf
			w.str("s")
			w.u8(kindSparse)
			w.u64(maxDim)
			w.u64(maxDim)
			w.u32(32)
			w.u32(0)
			return w.b
		}(), "grid"},
	}
	conn := dialNode(t)
	for _, tc := range cases {
		ft, body := roundTrip(t, conn, FrameTilePush, tc.payload)
		if ft != FrameErr {
			t.Fatalf("%s: answered %#x, want Err", tc.name, ft)
		}
		var r rbuf
		r.b = body
		if msg := r.str(); !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, msg, tc.want)
		}
		if ft, _ := roundTrip(t, conn, FramePing, nil); ft != FramePong {
			t.Fatalf("%s: ping after the bad frame answered %#x", tc.name, ft)
		}
	}
	// A well-formed sparse push is still accepted on the same connection.
	if ft, body := roundTrip(t, conn, FrameTilePush, sparse(32, 1, 0, 2, []uint32{1, 35}, []float64{2, -3})); ft != FrameOK {
		t.Fatalf("valid sparse push answered %#x: %q", ft, body)
	}
	var f wbuf
	f.str("s")
	ft, body := roundTrip(t, conn, FrameFetch, f.b)
	if ft != FrameTileData {
		t.Fatalf("fetch answered %#x", ft)
	}
	var r rbuf
	r.b = body
	rows, cols := r.denseDims()
	got := r.f64s(int(rows * cols))
	want := []float64{0, 2, 0, 0, 0, 0, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0}
	if r.fail() || rows != 4 || cols != 4 {
		t.Fatalf("fetch: %dx%d (%v)", rows, cols, r.err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fetched %v, want %v", got, want)
		}
	}
}
