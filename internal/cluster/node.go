package cluster

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"riot"
	"riot/internal/codec"
)

// Node is the serving side of the remote-frame protocol: one riot-serve
// session plus the tile shards coordinators have pushed to it. A Node
// serves any number of connections (ServeConn per conn, or
// ServeListener); engine work is serialized per node, mirroring how a
// riot-serve session executes one statement at a time.
type Node struct {
	id   string
	sess *riot.Session

	mu     sync.Mutex
	held   map[string]*heldArray
	closed atomic.Bool
}

// heldArray is one array a coordinator pushed or produced on this node:
// an operand handle (mat) or a computed result's values (vals).
type heldArray struct {
	mat        *riot.Matrix
	vals       []float64
	rows, cols int64
}

// NewNode wraps a session as a cluster peer. The caller keeps ownership
// of the session and closes it after the node stops serving.
func NewNode(id string, sess *riot.Session) *Node {
	return &Node{id: id, sess: sess, held: make(map[string]*heldArray)}
}

// ID returns the node's identity, as sent in its Hello frame.
func (n *Node) ID() string { return n.id }

// Held returns the names of the arrays the node currently holds, for
// tests and diagnostics.
func (n *Node) Held() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.held))
	for name := range n.held {
		out = append(out, name)
	}
	return out
}

// Close marks the node stopped: serving loops exit on their next frame
// and held shards are dropped. The wrapped session is the caller's to
// close.
func (n *Node) Close() {
	n.closed.Store(true)
	n.mu.Lock()
	n.held = make(map[string]*heldArray)
	n.mu.Unlock()
}

// ServeListener accepts connections until the listener closes, serving
// each with ServeConn.
func (n *Node) ServeListener(ln net.Listener) error {
	var conns sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			conns.Wait()
			if n.closed.Load() {
				return nil
			}
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			n.ServeConn(conn)
		}()
	}
}

// ServeConn performs the handshake and serves frames until the
// connection closes or the node is closed. Request-level failures are
// answered with FrameErr and the connection stays usable; transport
// errors end the loop.
func (n *Node) ServeConn(conn net.Conn) error {
	defer conn.Close()
	if err := n.handshake(conn); err != nil {
		return err
	}
	for !n.closed.Load() {
		t, payload, err := ReadFrame(conn)
		if err != nil {
			return err
		}
		resp, body, err := n.dispatch(t, payload)
		if err != nil {
			var e codec.Writer
			e.Str(err.Error())
			resp, body = FrameErr, e.Bytes()
		}
		if err := WriteFrame(conn, resp, body); err != nil {
			return err
		}
	}
	return nil
}

// handshake exchanges magic preambles and Hello frames; the node speaks
// second.
func (n *Node) handshake(conn net.Conn) error {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(conn, magic); err != nil {
		return fmt.Errorf("cluster: node %s: read magic: %w", n.id, err)
	}
	if string(magic) != Magic {
		return fmt.Errorf("cluster: node %s: bad magic %q", n.id, magic)
	}
	t, payload, err := ReadFrame(conn)
	if err != nil || t != FrameHello {
		return fmt.Errorf("cluster: node %s: expected Hello, got type %#x (%v)", n.id, t, err)
	}
	_ = payload // the coordinator's ID; informational
	if _, err := conn.Write([]byte(Magic)); err != nil {
		return err
	}
	var w codec.Writer
	w.Str(n.id)
	return WriteFrame(conn, FrameHello, w.Bytes())
}

// dispatch executes one request frame and returns the response.
func (n *Node) dispatch(t FrameType, payload []byte) (FrameType, []byte, error) {
	switch t {
	case FramePing:
		return FramePong, nil, nil
	case FrameTilePush:
		return n.tilePush(payload)
	case FrameExec:
		return n.exec(payload)
	case FrameFetch:
		return n.fetch(payload)
	case FrameDrop:
		return n.drop(payload)
	case FrameStats:
		return n.stats()
	}
	return 0, nil, fmt.Errorf("node %s: unknown frame type %#x", n.id, t)
}

// tilePush installs one pushed operand: name, kind, dims, then the
// kind's body. Dense operands arrive as row-major values; sparse ones as
// their nonzeros, tile by tile, and are built straight into
// tile-compressed storage, so the node's kernels see the same kind the
// coordinator held. Every count and index is validated against the
// declared dims and the payload's length before anything is allocated.
func (n *Node) tilePush(payload []byte) (FrameType, []byte, error) {
	r := codec.NewReader(payload)
	name := r.Str()
	kind := r.U8()
	var rows, cols int64
	var vals []float64
	var side int
	var tiles []sparseTile
	switch {
	case r.Err() != nil:
	case kind == kindDense:
		rows, cols = denseDims(r)
		vals = r.F64s(int(rows * cols))
	case kind == kindSparse:
		rows, cols, side, tiles = sparseBody(r)
	default:
		r.Fail(fmt.Errorf("cluster: unknown operand kind %d", kind))
	}
	if r.Err() == nil && r.Len() != 0 {
		r.Fail(fmt.Errorf("cluster: %d trailing bytes", r.Len()))
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("node %s: tile-push: %w", n.id, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var m *riot.Matrix
	var err error
	if kind == kindSparse {
		m, err = installSparse(n.sess, rows, cols, side, tiles)
	} else {
		m, err = n.sess.NewMatrix(rows, cols, func(i, j int64) float64 { return vals[i*cols+j] })
	}
	if err != nil {
		return 0, nil, fmt.Errorf("node %s: tile-push %s: %w", n.id, name, err)
	}
	n.held[name] = &heldArray{mat: m, rows: rows, cols: cols}
	return FrameOK, nil, nil
}

// exec runs one partial multiply out = a ⊗ b over the named ring and
// holds the result's values for a later FrameFetch. The k dimension is
// whole on every node, so this is the complete local reduction of the
// band's partial products — nothing accumulates across nodes.
func (n *Node) exec(payload []byte) (FrameType, []byte, error) {
	r := codec.NewReader(payload)
	out, aName, bName, ring := r.Str(), r.Str(), r.Str(), r.Str()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("node %s: exec: %w", n.id, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	a, okA := n.held[aName]
	b, okB := n.held[bName]
	if !okA || !okB || a.mat == nil || b.mat == nil {
		return 0, nil, fmt.Errorf("node %s: exec %s: operand not held (a=%v b=%v)", n.id, out, okA, okB)
	}
	if a.rows*b.cols > maxFrameValues {
		return 0, nil, fmt.Errorf("node %s: exec %s: a %dx%d product does not fit in one frame", n.id, out, a.rows, b.cols)
	}
	prod, err := a.mat.MatMulRing(b.mat, ring)
	if err != nil {
		return 0, nil, fmt.Errorf("node %s: exec %s: %w", n.id, out, err)
	}
	vals, err := prod.Values()
	if err != nil {
		return 0, nil, fmt.Errorf("node %s: exec %s: force: %w", n.id, out, err)
	}
	rows, cols := prod.Dims()
	n.held[out] = &heldArray{vals: vals, rows: rows, cols: cols}
	return FrameOK, nil, nil
}

// fetch returns a held array's dims and row-major values.
func (n *Node) fetch(payload []byte) (FrameType, []byte, error) {
	r := codec.NewReader(payload)
	name := r.Str()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("node %s: fetch: %w", n.id, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.held[name]
	if !ok {
		return 0, nil, fmt.Errorf("node %s: fetch %s: not held", n.id, name)
	}
	if h.rows*h.cols > maxFrameValues {
		return 0, nil, fmt.Errorf("node %s: fetch %s: %dx%d values do not fit in one frame", n.id, name, h.rows, h.cols)
	}
	vals := h.vals
	if vals == nil {
		var err error
		if vals, err = h.mat.Values(); err != nil {
			return 0, nil, fmt.Errorf("node %s: fetch %s: %w", n.id, name, err)
		}
	}
	var w codec.Writer
	w.I64(h.rows)
	w.I64(h.cols)
	w.F64s(vals)
	return FrameTileData, w.Bytes(), nil
}

// drop frees every held array whose name starts with the given prefix
// (coordinators drop their whole query namespace in one frame).
func (n *Node) drop(payload []byte) (FrameType, []byte, error) {
	r := codec.NewReader(payload)
	prefix := r.Str()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("node %s: drop: %w", n.id, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.held {
		if strings.HasPrefix(name, prefix) {
			delete(n.held, name)
		}
	}
	return FrameOK, nil, nil
}

// stats answers with the node session's cumulative I/O counters, the
// numbers the cluster ablation sums per node.
func (n *Node) stats() (FrameType, []byte, error) {
	rep := n.sess.Report()
	var w codec.Writer
	w.I64(rep.IOBytes)
	w.I64(rep.SeqOps)
	w.I64(rep.RandOps)
	w.I64(rep.Flops)
	return FrameStatsData, w.Bytes(), nil
}
