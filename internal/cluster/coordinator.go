package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"riot"
	"riot/internal/array"
	"riot/internal/codec"
	"riot/internal/plan"
)

// Options configures a Coordinator.
type Options struct {
	// ID names the coordinator in its Hello frames.
	ID string
	// Seed salts the placement ring; coordinators sharing a seed and a
	// peer list derive identical placements in different processes.
	Seed string
	// Replicas is the ring's virtual-node count (0 = DefaultReplicas).
	Replicas int
	// BlockElems is the tile block size (B) used to derive band
	// geometry and network-block estimates; it should match the peer
	// sessions' configuration. Default 1024.
	BlockElems int
	// MemElems is the per-node memory budget (M) used for remote-exec
	// cost estimates in Explain. Default 1<<22.
	MemElems int64
	// Timeout bounds each remote round trip; a peer that neither
	// answers nor fails within it is treated as dead. Default 30s.
	Timeout time.Duration
	// Retries is how many times a failed shard is re-placed onto the
	// surviving peers before the query aborts. Default 0: fail fast
	// with a descriptive error (the harness fault tests pin both
	// behaviours).
	Retries int
}

// NetStats counts the coordinator's interconnect traffic.
type NetStats struct {
	BytesSent int64 // frame payload + header bytes shipped to peers
	BytesRecv int64 // frame payload + header bytes gathered back
	Frames    int64 // request/response round trips
}

// Coordinator owns a peer list and a placement ring, and executes
// distributed tiled matrix multiplies: the larger operand's tile bands
// are scattered to their ring owners, the smaller operand is shipped to
// every participating node ("ship the smaller operand to where the
// larger one lives"), each node reduces its partial products locally
// over the whole k dimension, and the result bands are gathered and
// assembled here. Results are bit-identical to the single-node kernels
// because k is never sharded and every band runs the same tiled
// schedule. Safe for concurrent queries; each peer connection serves
// one round trip at a time.
type Coordinator struct {
	sess *riot.Session
	opts Options
	ring *Ring

	mu    sync.Mutex
	peers map[string]*Peer
	seq   atomic.Int64

	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	frames    atomic.Int64
}

// Peer is one live connection to a cluster node.
type Peer struct {
	id   string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	mu   sync.Mutex
	c    *Coordinator
}

// NewCoordinator builds a coordinator over the session that will hold
// gathered results. The caller keeps ownership of the session.
func NewCoordinator(sess *riot.Session, opts Options) *Coordinator {
	if opts.ID == "" {
		opts.ID = "coordinator"
	}
	if opts.BlockElems <= 0 {
		opts.BlockElems = 1024
	}
	if opts.MemElems <= 0 {
		opts.MemElems = 1 << 22
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	return &Coordinator{
		sess:  sess,
		opts:  opts,
		ring:  NewRing(opts.Seed, opts.Replicas),
		peers: make(map[string]*Peer),
	}
}

// Ring exposes the placement ring (tests inspect ownership through it).
func (c *Coordinator) Ring() *Ring { return c.ring }

// NetStats returns the cumulative interconnect counters.
func (c *Coordinator) NetStats() NetStats {
	return NetStats{
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
		Frames:    c.frames.Load(),
	}
}

// AddPeer performs the handshake over conn and joins the node to the
// placement ring. The node's Hello must match the expected id: placement
// is derived from ids, so a mismatched peer would silently own the
// wrong tiles.
func (c *Coordinator) AddPeer(id string, conn net.Conn) error {
	p := &Peer{id: id, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), c: c}
	if err := p.handshake(c.opts.ID, c.opts.Timeout); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: add peer %s: %w", id, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.peers[id]; ok {
		conn.Close()
		return fmt.Errorf("cluster: peer %s already joined", id)
	}
	c.peers[id] = p
	c.ring.Add(id)
	return nil
}

// RemovePeer drops a node from the ring and closes its connection;
// subsequent placements land on the survivors.
func (c *Coordinator) RemovePeer(id string) {
	c.mu.Lock()
	p := c.peers[id]
	delete(c.peers, id)
	c.mu.Unlock()
	c.ring.Remove(id)
	if p != nil {
		p.conn.Close()
	}
}

// Peers returns the live peer ids, sorted.
func (c *Coordinator) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for id := range c.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Close closes every peer connection.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	peers := c.peers
	c.peers = make(map[string]*Peer)
	c.mu.Unlock()
	for id, p := range peers {
		p.conn.Close()
		c.ring.Remove(id)
	}
	return nil
}

// handshake speaks the coordinator side: magic + Hello, then the
// node's magic + Hello back.
func (p *Peer) handshake(coordID string, timeout time.Duration) error {
	p.conn.SetDeadline(time.Now().Add(timeout))
	defer p.conn.SetDeadline(time.Time{})
	if _, err := p.w.WriteString(Magic); err != nil {
		return err
	}
	var h codec.Writer
	h.Str(coordID)
	if err := WriteFrame(p.w, FrameHello, h.Bytes()); err != nil {
		return err
	}
	if err := p.w.Flush(); err != nil {
		return err
	}
	magic := make([]byte, len(Magic))
	if _, err := ioReadFull(p.r, magic); err != nil {
		return fmt.Errorf("read magic: %w", err)
	}
	if string(magic) != Magic {
		return fmt.Errorf("bad magic %q", magic)
	}
	t, payload, err := ReadFrame(p.r)
	if err != nil || t != FrameHello {
		return fmt.Errorf("expected Hello, got type %#x (%v)", t, err)
	}
	if got := codec.NewReader(payload).Str(); got != p.id {
		return fmt.Errorf("node identifies as %q, expected %q", got, p.id)
	}
	return nil
}

// rpc runs one framed round trip under the peer's deadline. A FrameErr
// answer comes back as a Go error; transport failures mean the peer is
// dead for this query.
func (p *Peer) rpc(t FrameType, payload []byte) (FrameType, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.SetDeadline(time.Now().Add(p.c.opts.Timeout))
	defer p.conn.SetDeadline(time.Time{})
	if err := WriteFrame(p.w, t, payload); err != nil {
		return 0, nil, err
	}
	if err := p.w.Flush(); err != nil {
		return 0, nil, err
	}
	p.c.bytesSent.Add(int64(len(payload) + 5))
	rt, body, err := ReadFrame(p.r)
	if err != nil {
		return 0, nil, err
	}
	p.c.bytesRecv.Add(int64(len(body) + 5))
	p.c.frames.Add(1)
	if rt == FrameErr {
		return 0, nil, fmt.Errorf("%s", codec.NewReader(body).Str())
	}
	return rt, body, nil
}

// Ping round-trips a liveness probe to the named peer.
func (c *Coordinator) Ping(id string) error {
	c.mu.Lock()
	p := c.peers[id]
	c.mu.Unlock()
	if p == nil {
		return fmt.Errorf("cluster: no peer %s", id)
	}
	t, _, err := p.rpc(FramePing, nil)
	if err != nil {
		return fmt.Errorf("cluster: peer %s: ping: %w", id, err)
	}
	if t != FramePong {
		return fmt.Errorf("cluster: peer %s: ping answered %#x", id, t)
	}
	return nil
}

// bandSpec is one tile band of the sharded operand: rows of A under
// shard-left, columns of B under shard-right.
type bandSpec struct {
	idx    int
	lo, hi int64
}

// MatMul runs a distributed multiply over the standard ring.
func (c *Coordinator) MatMul(a, b *riot.Matrix) (*riot.Matrix, error) {
	return c.MatMulRing(a, b, "")
}

// MatMulRing runs C = A ⊗ B across the cluster over the named semi-ring
// ("" means standard). The larger operand is sharded by tile band onto
// the ring, the smaller shipped to every participating node; partial
// products reduce locally (k is whole on every node) and the result is
// gathered and assembled in the coordinator's session. Operands are
// read tile by tile from their stored form, never as a whole row-major
// copy. On a peer failure the share is re-placed onto the survivors up
// to Options.Retries times; the result is never published partially —
// either every band arrived or an error names the dead peer and the
// failed step.
func (c *Coordinator) MatMulRing(a, b *riot.Matrix, ring string) (*riot.Matrix, error) {
	l, m := a.Dims()
	m2, k := b.Dims()
	if m != m2 {
		return nil, fmt.Errorf("cluster: matmul dims %dx%d · %dx%d", l, m, m2, k)
	}
	if c.ring.Len() == 0 {
		return nil, fmt.Errorf("cluster: no peers joined")
	}
	x := &mulQuery{
		q:        fmt.Sprintf("q%d", c.seq.Add(1)),
		ring:     ring,
		shipLeft: l*m >= m*k, // shard the larger operand, broadcast the smaller
		l:        l,
		k:        k,
		out:      make([]float64, l*k),
	}
	var err error
	if x.a, err = storedOperand(a); err != nil {
		return nil, fmt.Errorf("cluster: force left operand: %w", err)
	}
	if x.b, err = storedOperand(b); err != nil {
		return nil, fmt.Errorf("cluster: force right operand: %w", err)
	}
	bands, label := c.bands(l, k, m, x.shipLeft)
	if len(bands) > 0 {
		// The broadcast operand is read once and its payload shared by
		// every peer's push.
		bc, rows := x.b, m
		if !x.shipLeft {
			bc, rows = x.a, l
		}
		bcast, err := encodePushes(bc, true, []string{x.q + ".bc"}, [][]bandSpec{{{hi: rows}}})
		if err != nil {
			return nil, fmt.Errorf("cluster: read broadcast operand: %w", err)
		}
		x.bcast = bcast[0]
		if err := c.scatterGather(x, label, bands); err != nil {
			return nil, err
		}
	}
	res, err := c.sess.NewMatrix(l, k, func(i, j int64) float64 { return x.out[i*k+j] })
	if err != nil {
		return nil, fmt.Errorf("cluster: assemble result: %w", err)
	}
	return res, nil
}

// mulQuery is one distributed multiply in flight.
type mulQuery struct {
	q        string // the query's name prefix on every node
	ring     string
	shipLeft bool // shard A by tile-row bands; otherwise B by tile-col bands
	a, b     operand
	l, k     int64     // the result's dims
	bcast    []byte    // the broadcast operand's TilePush payload
	out      []float64 // the row-major result, filled band by band
}

// bands splits the sharded dimension into tile bands of the session's
// square-tile side and returns the placement label hashing keys use.
func (c *Coordinator) bands(l, k, m int64, shipLeft bool) ([]bandSpec, string) {
	side, _, err := array.TileDimsFor(c.opts.BlockElems, array.SquareTiles)
	if err != nil || side < 1 {
		side = 1
	}
	span := l
	tag := "L"
	if !shipLeft {
		span = k
		tag = "R"
	}
	var bands []bandSpec
	for lo := int64(0); lo < span; lo += int64(side) {
		hi := lo + int64(side)
		if hi > span {
			hi = span
		}
		bands = append(bands, bandSpec{idx: len(bands), lo: lo, hi: hi})
	}
	label := fmt.Sprintf("matmul/%s/%dx%dx%d", tag, l, m, k)
	return bands, label
}

// place groups bands by ring owner, each owner's bands in ascending
// order. Owners must exist in the peer table; a band whose owner has no
// live connection is an error (the ring and peer list are kept in sync
// by Add/RemovePeer).
func (c *Coordinator) place(label string, bands []bandSpec) (map[string][]bandSpec, error) {
	assign := make(map[string][]bandSpec)
	for _, band := range bands {
		owner, ok := c.ring.Owner(label, band.idx)
		if !ok {
			return nil, fmt.Errorf("cluster: placement ring is empty")
		}
		assign[owner] = append(assign[owner], band)
	}
	return assign, nil
}

// scatterGather is one distributed multiply's attempt loop: run every
// peer's share, fill the result buffer. Failed peers are removed and
// their bands re-placed until Retries is exhausted.
func (c *Coordinator) scatterGather(x *mulQuery, label string, bands []bandSpec) error {
	pending := bands
	pushedBcast := make(map[string]bool)
	for attempt := 0; ; attempt++ {
		assign, err := c.place(label, pending)
		if err != nil {
			return err
		}
		type peerErr struct {
			id    string
			bands []bandSpec
			err   error
		}
		// Read every share in one pass over the sharded operand, in
		// storage order, before any peer is contacted. Names carry the
		// attempt and the peer, so a retry never reuses a dead attempt's
		// names.
		ids := make([]string, 0, len(assign))
		for id := range assign {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		bases := make([]string, len(ids))
		shNames := make([]string, len(ids))
		shares := make([][]bandSpec, len(ids))
		for i, id := range ids {
			bases[i] = fmt.Sprintf("%s.%d.%s", x.q, attempt, id)
			shNames[i] = bases[i] + ".sh"
			shares[i] = assign[id]
		}
		sharded := x.a
		if !x.shipLeft {
			sharded = x.b
		}
		bodies, err := encodePushes(sharded, x.shipLeft, shNames, shares)
		if err != nil {
			c.dropQuery(x.q)
			return fmt.Errorf("cluster: read sharded operand: %w", err)
		}
		var wg sync.WaitGroup
		errCh := make(chan peerErr, len(assign))
		for i, id := range ids {
			c.mu.Lock()
			p := c.peers[id]
			c.mu.Unlock()
			if p == nil {
				errCh <- peerErr{id, shares[i], fmt.Errorf("no live connection")}
				continue
			}
			wg.Add(1)
			go func(p *Peer, i int) {
				defer wg.Done()
				if err := c.runShare(p, x, bases[i], shares[i], bodies[i], pushedBcast); err != nil {
					errCh <- peerErr{p.id, shares[i], err}
				}
			}(p, i)
		}
		wg.Wait()
		close(errCh)
		var failed []bandSpec
		var firstErr error
		for pe := range errCh {
			failed = append(failed, pe.bands...)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: peer %s: %w", pe.id, pe.err)
			}
			c.RemovePeer(pe.id)
			delete(pushedBcast, pe.id)
		}
		if firstErr == nil {
			c.dropQuery(x.q)
			return nil
		}
		if attempt >= c.opts.Retries {
			c.dropQuery(x.q)
			return fmt.Errorf("%w (after %d attempt(s); result not published)", firstErr, attempt+1)
		}
		if c.ring.Len() == 0 {
			return fmt.Errorf("cluster: no live peers remain: %w", firstErr)
		}
		// Re-placed bands keep ascending order, so a sparse share's
		// partial last band still ends its concatenation.
		sort.Slice(failed, func(i, j int) bool { return failed[i].idx < failed[j].idx })
		pending = failed
	}
}

// runShare executes one peer's share of a query in one round trip of
// each kind: push the broadcast operand (once per peer and query), push
// the share's bands concatenated into one operand (body, encoded under
// base+".sh"), exec it, fetch the product, and copy its rows (or
// columns) back band by band. Band edges are tile edges and the bands
// ascend, so the share's tiles are the source's tiles and every output
// element sums over the same k in the same order as a single-node
// multiply. Shares write disjoint regions of the result, so they fill
// it concurrently without synchronization.
func (c *Coordinator) runShare(p *Peer, x *mulQuery, base string, share []bandSpec, body []byte, pushedBcast map[string]bool) error {
	bcName := x.q + ".bc"
	c.mu.Lock()
	pushed := pushedBcast[p.id]
	pushedBcast[p.id] = true
	c.mu.Unlock()
	if !pushed {
		if _, _, err := p.rpc(FrameTilePush, x.bcast); err != nil {
			return fmt.Errorf("broadcast %s: %w", bcName, err)
		}
	}
	shName, outName := base+".sh", base+".out"
	aName, bName := shName, bcName
	if !x.shipLeft {
		aName, bName = bcName, shName
	}
	if _, _, err := p.rpc(FrameTilePush, body); err != nil {
		return fmt.Errorf("scatter %s: %w", shName, err)
	}
	var e codec.Writer
	e.Str(outName)
	e.Str(aName)
	e.Str(bName)
	e.Str(x.ring)
	if _, _, err := p.rpc(FrameExec, e.Bytes()); err != nil {
		return fmt.Errorf("exec %s: %w", outName, err)
	}
	var f codec.Writer
	f.Str(outName)
	t, resp, err := p.rpc(FrameFetch, f.Bytes())
	if err != nil {
		return fmt.Errorf("gather %s: %w", outName, err)
	}
	if t != FrameTileData {
		return fmt.Errorf("gather %s: unexpected frame %#x", outName, t)
	}
	r := codec.NewReader(resp)
	gr, gc := denseDims(r)
	got := r.F64s(int(gr * gc))
	if err := r.Err(); err != nil {
		return fmt.Errorf("gather %s: %w", outName, err)
	}
	n := spanLen(share)
	k := x.k
	if x.shipLeft {
		if gr != n || gc != k {
			return fmt.Errorf("gather %s: got %dx%d, want %dx%d", outName, gr, gc, n, k)
		}
		var off int64
		for _, band := range share {
			copy(x.out[band.lo*k:band.hi*k], got[off*k:])
			off += band.hi - band.lo
		}
		return nil
	}
	if gr != x.l || gc != n {
		return fmt.Errorf("gather %s: got %dx%d, want %dx%d", outName, gr, gc, x.l, n)
	}
	for i := int64(0); i < x.l; i++ {
		off := i * n
		for _, band := range share {
			copy(x.out[i*k+band.lo:i*k+band.hi], got[off:])
			off += band.hi - band.lo
		}
	}
	return nil
}

// dropQuery frees the query's namespace on every live peer,
// best-effort: a peer that died keeps nothing we can reach anyway.
func (c *Coordinator) dropQuery(q string) {
	c.mu.Lock()
	peers := make([]*Peer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	for _, p := range peers {
		var w codec.Writer
		w.Str(q + ".")
		p.rpc(FrameDrop, w.Bytes())
	}
}

// PeerStats fetches the named peer session's cumulative I/O counters.
func (c *Coordinator) PeerStats(id string) (ioBytes, seqOps, randOps, flops int64, err error) {
	c.mu.Lock()
	p := c.peers[id]
	c.mu.Unlock()
	if p == nil {
		return 0, 0, 0, 0, fmt.Errorf("cluster: no peer %s", id)
	}
	t, body, err := p.rpc(FrameStats, nil)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("cluster: peer %s: stats: %w", id, err)
	}
	if t != FrameStatsData {
		return 0, 0, 0, 0, fmt.Errorf("cluster: peer %s: stats answered %#x", id, t)
	}
	r := codec.NewReader(body)
	ioBytes, seqOps, randOps, flops = r.I64(), r.I64(), r.I64(), r.I64()
	return ioBytes, seqOps, randOps, flops, r.Err()
}

// Explain renders the distributed physical plan for C = A ⊗ B under the
// current ring (ExplainPlan).
func (c *Coordinator) Explain(a, b *riot.Matrix, ring string) (string, error) {
	p, err := c.ExplainPlan(a, b, ring)
	if err != nil {
		return "", err
	}
	return p.Render(), nil
}

// ExplainPlan builds the distributed physical plan for C = A ⊗ B under
// the current ring without sending anything: the per-site scatter,
// remote-exec, and gather steps with io, cpu, and network-block
// estimates (plan.DistMatMul). The operands are forced locally, as the
// run would, so sparse shares are costed by their nonzeros.
func (c *Coordinator) ExplainPlan(a, b *riot.Matrix, ring string) (*plan.Plan, error) {
	l, m := a.Dims()
	m2, k := b.Dims()
	if m != m2 {
		return nil, fmt.Errorf("cluster: matmul dims %dx%d · %dx%d", l, m, m2, k)
	}
	av, err := storedOperand(a)
	if err != nil {
		return nil, fmt.Errorf("cluster: force left operand: %w", err)
	}
	bv, err := storedOperand(b)
	if err != nil {
		return nil, fmt.Errorf("cluster: force right operand: %w", err)
	}
	shipLeft := l*m >= m*k
	bands, label := c.bands(l, k, m, shipLeft)
	assign, err := c.place(label, bands)
	if err != nil {
		return nil, err
	}
	sites := make([]string, 0, len(assign))
	for id := range assign {
		sites = append(sites, id)
	}
	sort.Strings(sites)
	shards := make([]plan.DistShard, 0, len(sites))
	for _, id := range sites {
		share := assign[id]
		var w plan.Wire
		if shipLeft {
			w, err = av.wire(true, share)
		} else {
			w, err = bv.wire(false, share)
		}
		if err != nil {
			return nil, err
		}
		shards = append(shards, plan.DistShard{Site: id, Bands: len(share), Span: spanLen(share), Wire: w})
	}
	var bcast plan.Wire
	if shipLeft {
		bcast, err = bv.wire(true, []bandSpec{{hi: m}})
	} else {
		bcast, err = av.wire(true, []bandSpec{{hi: l}})
	}
	if err != nil {
		return nil, err
	}
	mach := plan.Machine{
		MemElems:   c.opts.MemElems,
		BlockElems: c.opts.BlockElems,
		Frames:     int(c.opts.MemElems) / c.opts.BlockElems,
		Workers:    1,
	}
	return plan.DistMatMul(l, m, k, shards, bcast, shipLeft, mach, ring), nil
}

// ioReadFull is io.ReadFull, aliased so the import list stays tidy in
// this file's hot section.
func ioReadFull(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
