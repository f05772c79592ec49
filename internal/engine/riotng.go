package engine

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"

	"riot/internal/algebra"
	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/disk"
	"riot/internal/exec"
	"riot/internal/opt"
	"riot/internal/plan"
	"riot/internal/rescache"
	"riot/internal/riotdb"
)

// RIOT is the next-generation engine of §5: operations build an
// expression DAG over the tiled array store; forcing a result optimizes
// the DAG (pushdown, CSE, chain reordering) and runs the fused,
// selective executor.
type RIOT struct {
	g    *algebra.Graph
	ex   *exec.Executor
	cfg  opt.Config
	dev  *disk.Device
	time TimeModel
	seq  atomic.Int64
	// prefix namespaces every owner name this instance allocates on the
	// device; session-scoped instances over a shared device each get a
	// distinct prefix so Close can free exactly their storage.
	prefix string
	// shared marks an instance created over a caller-owned pool
	// (NewRIOTWithPool): Close then frees only prefix-owned extents
	// instead of the whole device.
	shared bool
	closed atomic.Bool
}

// NewRIOT creates a RIOT engine with blockElems-sized blocks and
// memElems numbers of buffer-pool memory. It runs single-worker — the
// deterministic configuration every paper experiment uses.
func NewRIOT(blockElems int, memElems int64, tm TimeModel) *RIOT {
	return NewRIOTWorkers(blockElems, memElems, tm, 1)
}

// RIOTOptions configures a RIOT engine beyond block and memory sizing.
type RIOTOptions struct {
	// Workers bounds the executor and kernel goroutines; < 1 selects
	// runtime.GOMAXPROCS(0). 1 reproduces the sequential engine's I/O
	// counts exactly (single shard, single goroutine).
	Workers int
	// Readahead enables the buffer pool's I/O scheduler: asynchronous
	// prefetch with adaptive sequential readahead, vectored device
	// reads, and elevator write-back. Off, the I/O counters are
	// identical to the seed engine's.
	Readahead bool
	// Planner selects the physical planner strategy. The zero value,
	// plan.Heuristic, reproduces the seed executor's materialization
	// rules (and I/O counters) exactly; plan.CostBased decides from the
	// analytic cost formulas and the live machine parameters.
	Planner plan.Strategy
	// Prefix namespaces the owner names of everything the engine stores
	// on the device (sources, temporaries, forced results). Instances
	// sharing one device — the server's per-connection sessions — must
	// each use a distinct non-empty prefix; standalone engines leave it
	// empty and reproduce the seed's names exactly.
	Prefix string
	// Cache attaches the shared cross-session result cache to the
	// engine's executor. Nil leaves every code path (and every I/O
	// counter) identical to the cache-free engine.
	Cache *rescache.Cache
}

// NewRIOTWorkers creates a RIOT engine whose executor and kernels use up
// to workers goroutines over a buffer pool sharded to match. workers < 1
// selects runtime.GOMAXPROCS(0). workers == 1 reproduces the sequential
// engine's I/O counts exactly (single shard, single goroutine).
func NewRIOTWorkers(blockElems int, memElems int64, tm TimeModel, workers int) *RIOT {
	return NewRIOTConfigured(blockElems, memElems, tm, RIOTOptions{Workers: workers})
}

// NewRIOTConfigured creates a RIOT engine with full options over its own
// private device and buffer pool.
func NewRIOTConfigured(blockElems int, memElems int64, tm TimeModel, opts RIOTOptions) *RIOT {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	dev := disk.NewDevice(blockElems)
	pool := buffer.NewShardedWithMemory(dev, memElems, workers)
	if opts.Readahead {
		pool.SetReadahead(buffer.ReadaheadConfig{Enabled: true})
	}
	opts.Workers = workers
	r := newRIOTOverPool(pool, tm, opts)
	r.shared = false
	return r
}

// NewRIOTWithPool creates a session-scoped RIOT engine over a pool the
// caller owns — typically a quota'd view of a server's shared pool. The
// device is the pool's; several instances may share it as long as each
// uses a distinct opts.Prefix. Close frees only this instance's storage.
func NewRIOTWithPool(pool *buffer.Pool, tm TimeModel, opts RIOTOptions) *RIOT {
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	r := newRIOTOverPool(pool, tm, opts)
	r.shared = true
	return r
}

func newRIOTOverPool(pool *buffer.Pool, tm TimeModel, opts RIOTOptions) *RIOT {
	ex := exec.New(pool)
	ex.Workers = opts.Workers
	ex.Planner = opts.Planner
	ex.Prefix = opts.Prefix
	ex.Cache = opts.Cache
	return &RIOT{
		g:      algebra.NewGraph(),
		ex:     ex,
		cfg:    opt.DefaultConfig(),
		dev:    pool.Device(),
		time:   tm,
		prefix: opts.Prefix,
	}
}

// Close releases everything the instance stored on the device: resident
// frames are invalidated (without write-back — the storage is dying) and
// the extents freed. A standalone engine frees its whole private device;
// an engine made by NewRIOTWithPool frees only owners under its prefix,
// leaving other sessions' storage and the shared catalog untouched.
// Close is idempotent. It must not race in-flight evaluations on the
// same instance: callers finish or abandon their work first.
func (r *RIOT) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	pool := r.ex.Pool()
	pool.DrainPrefetch()
	if acct := pool.Account(); acct != nil {
		if n := acct.Pinned(); n > 0 {
			// A failed Close must stay retryable: clear the flag so a
			// later call (after the pins drain) can still free the
			// engine's storage instead of no-opping forever.
			r.closed.Store(false)
			return fmt.Errorf("engine: Close with %d frames still pinned", n)
		}
	}
	for _, owner := range r.dev.Owners() {
		if r.shared && !strings.HasPrefix(owner, r.prefix) {
			continue
		}
		for _, id := range r.dev.OwnerExtents(owner) {
			pool.Invalidate(id)
		}
		r.dev.Free(owner)
	}
	return nil
}

// Name implements Engine.
func (r *RIOT) Name() string { return "riot" }

// Config returns a pointer to the optimizer configuration so ablation
// benchmarks can toggle rules.
func (r *RIOT) Config() *opt.Config { return &r.cfg }

// Executor exposes the executor for ablations (fusion, eager updates).
func (r *RIOT) Executor() *exec.Executor { return r.ex }

func (r *RIOT) fresh(prefix string) string {
	return fmt.Sprintf("%s%s%d", r.prefix, prefix, r.seq.Add(1))
}

func (r *RIOT) node(v Value) (*algebra.Node, error) {
	if n, ok := v.(*algebra.Node); ok {
		return n, nil
	}
	return nil, fmt.Errorf("riot: not a DAG node: %T", v)
}

// NewVector implements Engine.
func (r *RIOT) NewVector(n int64, gen func(int64) float64) (Value, error) {
	v, err := array.NewVector(r.ex.Pool(), r.fresh("x"), n)
	if err != nil {
		return nil, err
	}
	if err := v.Fill(gen); err != nil {
		return nil, err
	}
	return r.g.SourceVec(v), nil
}

// NewMatrix implements Engine: stored with square tiles, the layout the
// optimizer's multiply kernel wants.
func (r *RIOT) NewMatrix(rows, cols int64, gen func(i, j int64) float64) (Value, error) {
	m, err := array.NewMatrix(r.ex.Pool(), r.fresh("m"), rows, cols, array.Options{Shape: array.SquareTiles})
	if err != nil {
		return nil, err
	}
	if err := m.Fill(gen); err != nil {
		return nil, err
	}
	return r.g.SourceMat(m), nil
}

// Sample implements Engine.
func (r *RIOT) Sample(n, k int64, seed uint64) (Value, error) {
	idx := riotdb.SampleIndices(n, k, seed)
	return r.NewVector(int64(len(idx)), func(i int64) float64 { return float64(idx[i]) })
}

// Arith implements Engine.
func (r *RIOT) Arith(op string, a, b Value) (Value, error) {
	an, err := r.node(a)
	if err != nil {
		return nil, err
	}
	bn, err := r.node(b)
	if err != nil {
		return nil, err
	}
	return r.g.ElemBinary(op, an, bn)
}

// ArithScalar implements Engine.
func (r *RIOT) ArithScalar(op string, a Value, s float64, scalarLeft bool) (Value, error) {
	an, err := r.node(a)
	if err != nil {
		return nil, err
	}
	return r.g.ScalarOp(op, an, s, scalarLeft)
}

// Map implements Engine.
func (r *RIOT) Map(fn string, a Value) (Value, error) {
	an, err := r.node(a)
	if err != nil {
		return nil, err
	}
	return r.g.ElemUnary(fn, an)
}

// MatMul implements Engine.
func (r *RIOT) MatMul(a, b Value) (Value, error) {
	an, err := r.node(a)
	if err != nil {
		return nil, err
	}
	bn, err := r.node(b)
	if err != nil {
		return nil, err
	}
	return r.g.MatMul(an, bn)
}

// IndexBy implements Engine.
func (r *RIOT) IndexBy(d, s Value) (Value, error) {
	dn, err := r.node(d)
	if err != nil {
		return nil, err
	}
	sn, err := r.node(s)
	if err != nil {
		return nil, err
	}
	return r.g.Gather(dn, sn)
}

// Range implements Engine.
func (r *RIOT) Range(a Value, lo, hi int64) (Value, error) {
	an, err := r.node(a)
	if err != nil {
		return nil, err
	}
	return r.g.Range(an, lo, hi)
}

// UpdateWhere implements Engine: the functional []<- operator.
func (r *RIOT) UpdateWhere(a Value, cmp string, thresh, val float64) (Value, error) {
	an, err := r.node(a)
	if err != nil {
		return nil, err
	}
	return r.g.UpdateMask(an, cmp, thresh, val)
}

// Assign implements Engine: deferral crosses assignments, so this is a
// no-op.
func (r *RIOT) Assign(v Value) (Value, error) { return v, nil }

// Release implements Engine. Stored sources are freed when the host
// drops them; derived nodes own no storage.
func (r *RIOT) Release(v Value) {
	n, ok := v.(*algebra.Node)
	if !ok {
		return
	}
	// Sources referenced by other live expressions must not be freed;
	// the engine is conservative and never frees shared sources. (A
	// production system would track liveness; experiments reset the
	// whole engine between runs.)
	_ = n
}

// optimize runs the rewrite rules on a root.
func (r *RIOT) optimize(n *algebra.Node) (*algebra.Node, error) {
	return opt.New(r.g, r.cfg).Optimize(n)
}

// SetExplainWriter makes every subsequent forced evaluation emit its
// rendered physical plan to w before executing (nil disables). The
// plan written is the one the executor interprets — built once, in the
// Force call itself.
func (r *RIOT) SetExplainWriter(w io.Writer) { r.ex.ExplainTo = w }

// Plan returns the physical plan for v as a structured object (the
// benchmarks compare its estimates against measured device counters).
// Nothing is executed.
func (r *RIOT) Plan(v Value) (*plan.Plan, error) {
	n, err := r.node(v)
	if err != nil {
		return nil, err
	}
	root, err := r.optimize(n)
	if err != nil {
		return nil, err
	}
	return r.ex.BuildPlan(root), nil
}

// Explain returns the rendered physical plan for v — the optimized
// DAG's per-node decisions, materialization and multiply schedule, and
// per-step I/O estimates — without executing anything.
func (r *RIOT) Explain(v Value) (string, error) {
	p, err := r.Plan(v)
	if err != nil {
		return "", err
	}
	return p.Render(), nil
}

// Fetch implements Engine.
func (r *RIOT) Fetch(v Value, limit int64) ([]float64, error) {
	n, err := r.node(v)
	if err != nil {
		return nil, err
	}
	if !n.Shape.Vector {
		if n.Op == algebra.OpSourceMat && n.SMat != nil {
			return fetchSparseMatrix(n.SMat, limit)
		}
		m, err := r.forceMat(n)
		if err != nil {
			return nil, err
		}
		return fetchDenseMatrix(m, limit)
	}
	root, err := r.optimize(n)
	if err != nil {
		return nil, err
	}
	return r.ex.Fetch(root, limit)
}

// fetchDenseMatrix reads up to limit elements of a dense matrix in
// row-major order, copying tile-wise: each tile is pinned once and its
// rows are copied whole instead of pinning per element.
func fetchDenseMatrix(m *array.Matrix, limit int64) ([]float64, error) {
	cols := m.Cols()
	count := m.Rows() * cols
	if limit >= 0 && limit < count {
		count = limit
	}
	out := make([]float64, count)
	tr, tc := m.TileDims()
	gr, gc := m.GridDims()
	for ti := 0; ti < gr; ti++ {
		if int64(ti)*int64(tr)*cols >= count {
			break // every element of this tile row is past the limit
		}
		for tj := 0; tj < gc; tj++ {
			if int64(ti)*int64(tr)*cols+int64(tj)*int64(tc) >= count {
				break
			}
			t, err := m.PinTile(ti, tj)
			if err != nil {
				return nil, err
			}
			for i := t.RowLo; i < t.RowHi; i++ {
				k := i*cols + t.ColLo
				if k >= count {
					break
				}
				copy(out[k:min(k+t.ColHi-t.ColLo, count)], t.Row(i))
			}
			t.Release()
		}
	}
	return out, nil
}

// Sum implements Engine.
func (r *RIOT) Sum(v Value) (float64, error) {
	n, err := r.node(v)
	if err != nil {
		return 0, err
	}
	root, err := r.optimize(n)
	if err != nil {
		return 0, err
	}
	return r.ex.Reduce("sum", root)
}

func (r *RIOT) forceMat(n *algebra.Node) (*array.Matrix, error) {
	root, err := r.optimize(n)
	if err != nil {
		return nil, err
	}
	return r.ex.ForceMatrix(root, r.fresh("res"))
}

// ForceMatrix materializes a matrix-valued expression (for examples and
// tests that need the stored result).
func (r *RIOT) ForceMatrix(v Value) (*array.Matrix, error) {
	n, err := r.node(v)
	if err != nil {
		return nil, err
	}
	return r.forceMat(n)
}

// ForceVector materializes a vector-valued expression into a stored
// vector (the catalog's publish path).
func (r *RIOT) ForceVector(v Value) (*array.Vector, error) {
	n, err := r.node(v)
	if err != nil {
		return nil, err
	}
	if !n.Shape.Vector {
		return nil, fmt.Errorf("riot: ForceVector of matrix value")
	}
	root, err := r.optimize(n)
	if err != nil {
		return nil, err
	}
	return r.ex.ForceVector(root, r.fresh("res"))
}

// WrapVector lifts a stored vector into the instance's DAG (the
// catalog's read path). Wrapping the same vector twice returns the same
// node, so repeated reads share evaluation.
func (r *RIOT) WrapVector(v *array.Vector) Value { return r.g.SourceVec(v) }

// WrapMatrix lifts a stored matrix into the instance's DAG.
func (r *RIOT) WrapMatrix(m *array.Matrix) Value { return r.g.SourceMat(m) }

// Pool returns the buffer-pool view the instance evaluates through.
func (r *RIOT) Pool() *buffer.Pool { return r.ex.Pool() }

// Length implements Engine.
func (r *RIOT) Length(v Value) int64 {
	if n, ok := v.(*algebra.Node); ok {
		return n.Shape.Len()
	}
	return 0
}

// Dims implements Engine.
func (r *RIOT) Dims(v Value) (int64, int64, bool) {
	if n, ok := v.(*algebra.Node); ok {
		return n.Shape.Rows, n.Shape.Cols, n.Shape.Vector
	}
	return 0, 0, false
}

// Report implements Engine. In-flight prefetches are drained first so
// asynchronous loads never straddle a measurement.
func (r *RIOT) Report() Report {
	r.ex.Pool().DrainPrefetch()
	st := r.dev.Stats()
	exStats := r.ex.Stats()
	rep := Report{
		IOBytes:   st.TotalBytes(),
		SeqOps:    st.SeqReads + st.SeqWrites,
		RandOps:   st.RandReads + st.RandWrites,
		Flops:     exStats.Flops,
		FlopsByOp: exStats.FlopsByOp,
	}
	blockBytes := float64(r.dev.BlockBytes())
	seqSec := float64(rep.SeqOps) * blockBytes / (r.time.SeqMBps * (1 << 20))
	randSec := float64(rep.RandOps) * (r.time.RandSeekSec + blockBytes/(r.time.SeqMBps*(1<<20)))
	rep.SimSeconds = seqSec + randSec + float64(rep.Flops)/r.time.FlopsPerSec
	return rep
}

// ResetStats implements Engine.
func (r *RIOT) ResetStats() {
	r.ex.Pool().DrainPrefetch()
	r.dev.ResetStats()
	r.ex.ResetStats()
}

var _ Engine = (*RIOT)(nil)
