package main

import (
	"fmt"
	"math"

	"riot"
	"riot/internal/cluster/harness"
)

// graphSizes sizes the cluster workload: a seeded sparse N×N adjacency
// matrix at Density times a dense N×K block, on Nodes nodes of M
// elements each.
type graphSizes struct {
	N, K    int64
	Density float64
	Nodes   int
	M       int64
	B       int
	// RestartEvery restarts the cluster after that many iterations.
	// Nodes never free the operands and products of finished queries
	// (their drop only forgets the names), so node storage grows by
	// about twice the operands' size per iteration; the restart bounds
	// the process's memory. The growth is reported as
	// cluster.node_live_mb_per_op. A restart's own traffic (loading the
	// operands again) is left out of the counters.
	RestartEvery int
}

var graphFull = graphSizes{N: 2048, K: 64, Density: 0.01, Nodes: 2, M: 1 << 17, B: 1024,
	RestartEvery: 2}

// graphPlacementSeed salts the placement ring. It is part of the
// system's configuration, not of the inputs, so it does not vary with
// --seed: every seed sees the same placement.
const graphPlacementSeed = "perfbench"

type graph struct {
	sz      graphSizes
	seed    int64
	cl      *harness.Cluster
	a, x    *riot.Matrix
	want    []float64 // the product computed once on one session
	opBytes float64   // stored bytes of both operands
	corrupt func([]float64)

	iters     int      // iterations on the current cluster
	base      counters // the current cluster's counters right after its load
	closed    counters // counters of clusters already restarted
	nodeGrowB float64  // node storage added by iterations, in bytes
}

func newGraph(seed int64, sz graphSizes) (*graph, error) {
	g := &graph{sz: sz, seed: seed, closed: counters{}}
	err := g.start()
	if err == nil {
		// The reference: the same product on the coordinator's own
		// session, before any distributed run.
		g.want, err = g.local()
	}
	if err == nil {
		err = g.iterate(Tracer{}) // warm-up, checked
	}
	if err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// start builds the cluster and loads the operands into the
// coordinator's session.
func (g *graph) start() error {
	cfg := riot.Config{BlockElems: g.sz.B, MemElems: g.sz.M}
	cl, err := harness.Start(harness.Options{Nodes: g.sz.Nodes, Config: cfg, Seed: graphPlacementSeed})
	if err != nil {
		return err
	}
	g.cl, g.iters = cl, 0
	if err := g.load(); err != nil {
		return err
	}
	g.base = g.raw()
	return nil
}

// between restarts the cluster every RestartEvery iterations, keeping
// the counters of the old one.
func (g *graph) between() error {
	if g.iters < g.sz.RestartEvery {
		return nil
	}
	g.closed = g.counters()
	g.cl.Close()
	g.cl = nil
	return g.start()
}

// nodeLiveBytes is the storage held on every node's device.
func (g *graph) nodeLiveBytes() float64 {
	var n float64
	for i := 0; i < g.sz.Nodes; i++ {
		n += storedBytes(g.cl.NodeSession(i))
	}
	return n
}

func (g *graph) load() error {
	sz, seed := g.sz, g.seed
	adj := func(i, j int64) float64 {
		k := uint64(i*sz.N + j)
		if unit(seed, 21, k) >= sz.Density {
			return 0
		}
		return 1 + math.Floor(8*unit(seed, 22, k))
	}
	dense, err := g.cl.Sess.NewMatrix(sz.N, sz.N, adj)
	if err != nil {
		return err
	}
	before := storedBytes(g.cl.Sess)
	if g.a, err = dense.Sparse(); err != nil {
		return err
	}
	if g.x, err = g.cl.Sess.NewMatrix(sz.N, sz.K, func(i, j int64) float64 {
		return 2*unit(seed, 23, uint64(i*sz.K+j)) - 1
	}); err != nil {
		return err
	}
	g.opBytes = storedBytes(g.cl.Sess) - before
	return nil
}

// local multiplies on the coordinator's session alone and fetches.
func (g *graph) local() ([]float64, error) {
	p, err := g.a.MatMul(g.x)
	if err != nil {
		return nil, err
	}
	return p.Values()
}

func (g *graph) iterate(t Tracer) error {
	g.iters++
	live := g.nodeLiveBytes()
	defer func() { g.nodeGrowB += g.nodeLiveBytes() - live }()
	var p *riot.Matrix
	if err := t.Span("cluster.matmul", func(Tracer) error {
		var err error
		p, err = g.cl.Coord.MatMul(g.a, g.x)
		return err
	}); err != nil {
		return err
	}
	var got []float64
	if err := t.Span("engine.fetch", func(Tracer) error {
		var err error
		got, err = p.Values()
		return err
	}); err != nil {
		return err
	}
	if g.corrupt != nil {
		g.corrupt(got)
	}
	return g.check(got)
}

// check requires bit identity with the single-session product.
func (g *graph) check(got []float64) error {
	if len(got) != len(g.want) {
		return fmt.Errorf("%w: product has %d elements, want %d", errWrong, len(got), len(g.want))
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(g.want[i]) {
			return fmt.Errorf("%w: product[%d] = %v, want %v (bits differ)", errWrong, i, v, g.want[i])
		}
	}
	return nil
}

// extras times the single-node baseline: the same product and fetch on
// the coordinator's own session.
func (g *graph) extras(t Tracer) error {
	return t.Span("baseline.local", func(Tracer) error {
		_, err := g.local()
		return err
	})
}

// counters sums the current cluster's counters since its load onto
// those of the clusters already restarted.
func (g *graph) counters() counters {
	c := g.raw().sub(g.base)
	for k, v := range g.closed {
		c[k] += v
	}
	c["node.grow_bytes"] = g.nodeGrowB
	return c
}

// raw snapshots the current cluster's cumulative counters.
func (g *graph) raw() counters {
	c := counters{}
	net := g.cl.Coord.NetStats()
	c["net.bytes"] = float64(net.BytesSent + net.BytesRecv)
	c["net.frames"] = float64(net.Frames)
	rep := g.cl.Sess.Report()
	c["io_bytes"], c["sim_s"] = float64(rep.IOBytes), rep.SimSeconds
	for i := 0; i < g.sz.Nodes; i++ {
		r := g.cl.NodeSession(i).Report()
		c["io_bytes"] += float64(r.IOBytes)
		c["sim_s"] += r.SimSeconds
		c[fmt.Sprintf("node%d.io_bytes", i)] = float64(r.IOBytes)
	}
	return c
}

func (g *graph) close() {
	if g.cl != nil {
		g.cl.Close()
	}
}

func runGraph(o runOpts) (*outcome, error) { return runGraphSized(o, graphFull, nil) }

// runGraphSized runs the workload at the given sizes; corrupt, when set,
// perturbs every measured iteration's output before its check.
func runGraphSized(o runOpts, sz graphSizes, corrupt func([]float64)) (*outcome, error) {
	res := newOutcome()
	res.sizes = map[string]any{"B": sz.B, "M_per_node": sz.M, "nodes": sz.Nodes,
		"adjacency": []int64{sz.N, sz.N}, "density": sz.Density, "dense": []int64{sz.N, sz.K}}
	var g *graph
	ph, b, err := runBatch(o, res, func() (batch, error) {
		var err error
		if g, err = newGraph(o.seed, sz); err != nil {
			return nil, err
		}
		g.corrupt = corrupt
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	defer b.close()
	if o.trace {
		ops := ph.ops()
		d := ph.delta
		l := res.layer
		l["cluster.matmul_ms"] = ph.layerMS("cluster")
		l["engine.fetch_ms"] = ph.layerMS("engine")
		l["cluster.local_ms"] = median(spanMS(ph.spans, "baseline.local"))
		l["cluster.net_mb"] = d["net.bytes"] / (1 << 20) / ops
		l["cluster.frames"] = d["net.frames"] / ops
		l["cluster.net_per_operand_byte"] = ratio(d["net.bytes"]/ops, g.opBytes)
		var maxIO, sumIO float64
		for i := 0; i < sz.Nodes; i++ {
			io := d[fmt.Sprintf("node%d.io_bytes", i)]
			maxIO = math.Max(maxIO, io)
			sumIO += io
		}
		l["cluster.max_node_io_mb"] = maxIO / (1 << 20) / ops
		l["cluster.busiest_share"] = ratio(maxIO, sumIO)
		l["cluster.node_live_mb_per_op"] = d["node.grow_bytes"] / (1 << 20) / ops
	}
	return res, nil
}
