// Package exec evaluates optimized expression DAGs over the tiled array
// store. Its two core behaviours are the ones the paper identifies as
// the sources of RIOT's wins (§3, §5):
//
//   - Fusion: maximal elementwise regions of the DAG are evaluated in a
//     single streaming pass, block by block, with no intermediate vector
//     ever materialized — the hand-coded loop of Example 1, derived
//     automatically.
//   - Selective evaluation: Range and Gather nodes (after pushdown)
//     compute only the elements actually demanded, touching only the
//     blocks that hold them.
//
// Shared subexpressions (more than one consumer) are materialized once
// into temporaries and reused — the materialization policy that
// "complements deferred evaluation" (§5). Matrix multiplies dispatch to
// the out-of-core kernels in internal/linalg, choosing the algorithm by
// analytic cost.
//
// # Parallelism
//
// When Workers > 1, full-length evaluations (ForceVector, Fetch of many
// blocks, reductions) partition the output into block-aligned ranges and
// dispatch them to a bounded pool of goroutines over the shared
// (sharded) buffer pool. Each worker owns the output blocks it produces
// and carries its own scratch buffers; reductions combine per-worker
// partials in worker order. Shared subexpressions are materialized
// up-front by a sequential preparation pass, so during the parallel
// phase the memo table is read-only. Workers == 1 takes the exact
// sequential code path of the original executor, reproducing its
// deterministic I/O counts; parallel runs compute identical values but
// may schedule I/O differently (and so see different hit/miss splits).
package exec

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"riot/internal/algebra"
	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/linalg"
	"riot/internal/plan"
	"riot/internal/rescache"
	"riot/internal/scalarop"
	"riot/internal/sparse"
)

// Stats counts evaluation work.
type Stats struct {
	ElementsComputed int64 // elements produced across all node evaluations
	Materialized     int64 // temporaries written to the store
	Flops            int64 // scalar arithmetic operations
	// FlopsByOp splits Flops by the operator that performed them
	// (binary/unary spellings, "matmul", reduction names). The map is a
	// copy; mutating it does not affect the executor.
	FlopsByOp map[string]int64
}

// Executor evaluates DAGs over a buffer pool. It is a plan interpreter:
// every Force call first builds a plan.Plan for the root (per-node
// Pipeline/Materialize decisions, multiply algorithm selection, the
// preparation schedule) and then reads that decision table instead of
// deriving policy on the fly.
type Executor struct {
	pool *buffer.Pool
	seq  atomic.Int64
	// Workers bounds the goroutines used for full-length evaluation.
	// 1 (the default) is the sequential, I/O-deterministic executor.
	Workers int
	// Planner selects the plan-time decision strategy. The default,
	// plan.Heuristic, reproduces the seed executor's materialization
	// rules (and I/O counters) exactly; plan.CostBased decides from the
	// analytic cost formulas and the live machine parameters.
	Planner plan.Strategy
	// ExplainTo, when set, receives the rendered physical plan of every
	// Force call before it executes (riot-run -explain).
	ExplainTo io.Writer
	// Prefix namespaces the owner names of materialized temporaries on
	// the device. Executors sharing one device (per-session engines over
	// a server's shared pool) must use distinct prefixes so one session's
	// teardown cannot free another's temporaries.
	Prefix string
	// FuseElementwise can be disabled to materialize every intermediate
	// (the ablation that mimics plain R's evaluation inside RIOT).
	FuseElementwise bool
	// EagerUpdates makes []<-(x) materialize the whole new state before
	// any element is read — the semantics of R and RIOT-DB, where a
	// modification forces evaluation (§5). RIOT's functional updates
	// leave it false; Figure 2 compares the two.
	EagerUpdates bool
	// Cache is the shared cross-session result cache. Nil (the default)
	// leaves every code path byte-identical to the cache-free executor;
	// when set, each Force call probes it for the root (and, on a root
	// miss, for interior nodes) before planning, serves hits with zero
	// recomputation, and installs eligible materialized temporaries on
	// miss.
	Cache *rescache.Cache

	elementsComputed atomic.Int64
	materialized     atomic.Int64
	flops            atomic.Int64
	// flopsByOp attributes flops to operator spellings. Updated once per
	// chunk (not per element) under flopsMu, so the lock is cold.
	flopsByOp map[string]int64
	flopsMu   sync.Mutex
	// scratch recycles chunk-sized []float64 buffers across the fused
	// pipeline's recursive descent (OpElemBinary right operands, gather
	// index blocks). A sync.Pool rather than per-worker slots because the
	// recursion can hold several live buffers at once.
	scratch sync.Pool

	// temps caches materialized shared subexpressions per Force call.
	// During a parallel section the map is read-only except for the rare
	// fallback in storeTemp, which takes tempsMu; lookups in parallel
	// mode take the read lock.
	temps      map[*algebra.Node]*array.Vector
	tempsMu    sync.RWMutex
	inParallel bool
	// curPlan is the physical plan of the Force call in progress.
	curPlan *plan.Plan
	// cacheHashes/cacheHits carry the Force call's cache state: the
	// canonical hashes of the (eligible) DAG and the handles acquired
	// for every probe that hit. Both are written only in begin and read
	// concurrently by workers; handles are released in end.
	cacheHashes *rescache.DAGHashes
	cacheHits   map[*algebra.Node]*rescache.Handle
}

// New creates an executor with fusion enabled.
func New(pool *buffer.Pool) *Executor {
	return &Executor{pool: pool, FuseElementwise: true, Workers: 1}
}

// Pool returns the executor's buffer pool.
func (e *Executor) Pool() *buffer.Pool { return e.pool }

// Stats returns the work counters.
func (e *Executor) Stats() Stats {
	e.flopsMu.Lock()
	byOp := make(map[string]int64, len(e.flopsByOp))
	for op, n := range e.flopsByOp {
		byOp[op] = n
	}
	e.flopsMu.Unlock()
	return Stats{
		ElementsComputed: e.elementsComputed.Load(),
		Materialized:     e.materialized.Load(),
		Flops:            e.flops.Load(),
		FlopsByOp:        byOp,
	}
}

// ResetStats zeroes the counters.
func (e *Executor) ResetStats() {
	e.elementsComputed.Store(0)
	e.materialized.Store(0)
	e.flops.Store(0)
	e.flopsMu.Lock()
	e.flopsByOp = nil
	e.flopsMu.Unlock()
}

// addFlops charges n flops to op: the global counter feeds the time
// model, the per-op split feeds \stats. Called once per chunk.
// ChargeFlops adds n operations under the given op label — for
// engine-level composites (like the semi-ring closure's ⊕-merges) that
// run kernels outside a DAG force but should still appear in
// flops_by_op.
func (e *Executor) ChargeFlops(op string, n int64) { e.addFlops(op, n) }

func (e *Executor) addFlops(op string, n int64) {
	e.flops.Add(n)
	e.flopsMu.Lock()
	if e.flopsByOp == nil {
		e.flopsByOp = make(map[string]int64)
	}
	e.flopsByOp[op] += n
	e.flopsMu.Unlock()
}

// getScratch returns a recycled buffer of length n; putScratch gives it
// back. Recycling replaces the per-chunk-per-level make in the fused
// pipeline, whose garbage scaled with DAG depth × chunks × workers.
func (e *Executor) getScratch(n int) []float64 {
	if p, ok := e.scratch.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func (e *Executor) putScratch(b []float64) {
	e.scratch.Put(&b)
}

func (e *Executor) fresh(prefix string) string {
	return fmt.Sprintf("%s%s#%d", e.Prefix, prefix, e.seq.Add(1))
}

// workerCount bounds the parallelism for a job of tasks block-sized
// units. Inside an already-parallel section nested jobs run sequentially.
// Workers are also capped at a third of the pool's frame budget: a
// streaming worker holds one pinned output chunk, one transient input
// chunk, and (while filling a memoized temporary) one more output
// chunk, so capacity/3 in-flight workers can never pin the pool shut.
func (e *Executor) workerCount(tasks int) int {
	w := e.Workers
	if w < 1 || e.inParallel {
		w = 1
	}
	if frames := e.pool.Capacity() / 3; w > frames && frames >= 1 {
		w = frames
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runParallel splits [0, n) into w contiguous ranges and runs fn on each
// from its own goroutine. Contiguous ranges keep each worker's device
// access as sequential as a lone scan. The first error wins.
func (e *Executor) runParallel(w, n int, fn func(worker, lo, hi int) error) error {
	if w <= 1 {
		return fn(0, 0, n)
	}
	e.inParallel = true
	defer func() { e.inParallel = false }()
	errs := make([]error, w)
	var wg sync.WaitGroup
	for j := 0; j < w; j++ {
		lo, hi := n*j/w, n*(j+1)/w
		wg.Add(1)
		go func(j, lo, hi int) {
			defer wg.Done()
			errs[j] = fn(j, lo, hi)
		}(j, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForceVector evaluates a vector-shaped DAG into a stored vector.
func (e *Executor) ForceVector(n *algebra.Node, name string) (*array.Vector, error) {
	if !n.Shape.Vector {
		return nil, fmt.Errorf("exec: ForceVector of matrix node")
	}
	e.begin(n)
	defer e.end()
	if n.Op == algebra.OpSourceVec && n.Vec != nil {
		return n.Vec, nil
	}
	out, err := array.NewVector(e.pool, name, n.Shape.Rows)
	if err != nil {
		return nil, err
	}
	if err := e.streamInto(n, out); err != nil {
		return nil, err
	}
	return out, e.pool.FlushAll()
}

// Fetch evaluates up to limit elements of a vector node (limit < 0 for
// all) into memory. Small selective results never touch the store.
func (e *Executor) Fetch(n *algebra.Node, limit int64) ([]float64, error) {
	if !n.Shape.Vector {
		return nil, fmt.Errorf("exec: Fetch of matrix node")
	}
	e.begin(n)
	defer e.end()
	count := n.Shape.Rows
	if limit >= 0 && limit < count {
		count = limit
	}
	out := make([]float64, count)
	const block = 4096
	nchunks := int((count + block - 1) / block)
	w := e.workerCount(nchunks)
	if w > 1 {
		if err := e.prepareShared(n); err != nil {
			return nil, err
		}
	}
	win := e.announceWindow(w, n)
	err := e.runParallel(w, nchunks, func(_, clo, chi int) error {
		partEnd := min(int64(chi)*block, count)
		announced := int64(clo) * block
		buf := make([]float64, 0, block)
		for c := clo; c < chi; c++ {
			lo := int64(c) * block
			hi := min(lo+block, count)
			announced = e.announceAhead(n, lo, announced, win, partEnd)
			buf = buf[:hi-lo]
			if err := e.evalRange(n, lo, hi, buf); err != nil {
				return err
			}
			copy(out[lo:hi], buf)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reduce evaluates a reduction over a vector node.
func (e *Executor) Reduce(fn string, n *algebra.Node) (float64, error) {
	e.begin(n)
	defer e.end()
	return e.reduce(fn, n)
}

func (e *Executor) reduce(fn string, n *algebra.Node) (float64, error) {
	var identity float64
	switch fn {
	case "min":
		identity = math.Inf(1)
	case "max":
		identity = math.Inf(-1)
	case "sum":
	default:
		return 0, fmt.Errorf("exec: unknown reduction %q", fn)
	}
	const block = 4096
	nelem := n.Shape.Rows
	nchunks := int((nelem + block - 1) / block)
	w := e.workerCount(nchunks)
	if w > 1 {
		if err := e.prepareShared(n); err != nil {
			return 0, err
		}
	}
	// Per-worker partials, combined in worker order so a given worker
	// count reduces deterministically.
	partials := make([]float64, w)
	win := e.announceWindow(w, n)
	err := e.runParallel(w, nchunks, func(worker, clo, chi int) error {
		partEnd := min(int64(chi)*block, nelem)
		announced := int64(clo) * block
		acc := identity
		buf := make([]float64, block)
		for c := clo; c < chi; c++ {
			lo := int64(c) * block
			hi := min(lo+block, nelem)
			announced = e.announceAhead(n, lo, announced, win, partEnd)
			b := buf[:hi-lo]
			if err := e.evalRange(n, lo, hi, b); err != nil {
				return err
			}
			// The slice kernels fold b into acc in the same element order
			// as the scalar loops they replaced, so chunked and parallel
			// reductions stay bit-identical to the sequential sweep.
			switch fn {
			case "sum":
				acc = scalarop.SumSlice(acc, b)
			case "min":
				acc = scalarop.MinSlice(acc, b)
			case "max":
				acc = scalarop.MaxSlice(acc, b)
			}
		}
		partials[worker] = acc
		return nil
	})
	if err != nil {
		return 0, err
	}
	acc := partials[0]
	for _, p := range partials[1:] {
		switch fn {
		case "sum":
			acc += p
		case "min":
			if p < acc {
				acc = p
			}
		case "max":
			if p > acc {
				acc = p
			}
		}
	}
	e.addFlops(fn, nelem)
	return acc, nil
}

// ForceMatrix evaluates a matrix-shaped DAG into a stored dense matrix.
// Results whose natural kind is sparse (a sparse source, or a
// sparse×sparse product) are densified — the explicit dense(m)
// conversion; use ForceMatrixAny to keep them compressed. A sparse
// *intermediate* (temp) is freed after the conversion; a sparse source
// is not, since it is the caller's stored array.
func (e *Executor) ForceMatrix(n *algebra.Node, name string) (*array.Matrix, error) {
	if n.Shape.Vector {
		return nil, fmt.Errorf("exec: ForceMatrix of vector node")
	}
	e.begin(n)
	defer e.end()
	f, err := e.forceMatAny(n, name)
	if err != nil {
		return nil, err
	}
	if f.s != nil {
		d, err := f.s.ToDense(e.pool, e.fresh(name+"_dense"))
		if f.temp {
			f.s.Free()
		}
		return d, err
	}
	return f.d, nil
}

// ForceMatrixAny evaluates a matrix-shaped DAG into a stored matrix of
// its natural kind: exactly one of the returned matrices is non-nil.
func (e *Executor) ForceMatrixAny(n *algebra.Node, name string) (*array.Matrix, *sparse.Matrix, error) {
	d, s, _, err := e.ForceMatrixOwned(n, name)
	return d, s, err
}

// ForceMatrixOwned is ForceMatrixAny plus ownership: temp reports
// whether the result is a fresh intermediate (not a stored source) —
// a caller that only inspects the result should free it when temp, so
// repeated evaluations don't grow the device until session close.
func (e *Executor) ForceMatrixOwned(n *algebra.Node, name string) (d *array.Matrix, s *sparse.Matrix, temp bool, err error) {
	if n.Shape.Vector {
		return nil, nil, false, fmt.Errorf("exec: ForceMatrix of vector node")
	}
	e.begin(n)
	defer e.end()
	f, err := e.forceMatAny(n, name)
	if err != nil {
		return nil, nil, false, err
	}
	return f.d, f.s, f.temp, nil
}

// PlanOptions returns the planner inputs for this executor: its
// strategy, ablation knobs, and the live machine parameters of its
// buffer pool.
func (e *Executor) PlanOptions() plan.Options {
	return plan.Options{
		Strategy: e.Planner,
		Machine: plan.Machine{
			MemElems:   e.pool.MemoryElems(),
			BlockElems: e.pool.Device().BlockElems(),
			Frames:     e.pool.Capacity(),
			Workers:    e.Workers,
			Readahead:  e.pool.ReadaheadEnabled(),
		},
		FuseElementwise: e.FuseElementwise,
		EagerUpdates:    e.EagerUpdates,
	}
}

// BuildPlan plans a root without executing it (Explain). With a result
// cache attached it runs the same probe a Force call would, so Explain
// shows the cached steps the execution will take; the probe's handles
// are released before returning.
func (e *Executor) BuildPlan(root *algebra.Node) *plan.Plan {
	e.beginCache(root)
	opts := e.PlanOptions()
	opts.Cache = e.cachePlanView()
	p := plan.Build(root, opts)
	for _, h := range e.cacheHits {
		h.Release()
	}
	e.cacheHits = nil
	e.cacheHashes = nil
	return p
}

func (e *Executor) begin(root *algebra.Node) {
	e.temps = make(map[*algebra.Node]*array.Vector)
	e.beginCache(root)
	opts := e.PlanOptions()
	opts.Cache = e.cachePlanView()
	e.curPlan = plan.Build(root, opts)
	if e.ExplainTo != nil {
		fmt.Fprint(e.ExplainTo, e.curPlan.Render())
	}
}

func (e *Executor) end() {
	for _, v := range e.temps {
		v.Free()
	}
	e.temps = nil
	e.curPlan = nil
	for _, h := range e.cacheHits {
		h.Release()
	}
	e.cacheHits = nil
	e.cacheHashes = nil
}

// beginCache probes the result cache for the Force call: it hashes the
// DAG (nil if any leaf is session-local), acquires the root's entry if
// present, and only on a root miss probes the interior top-down —
// skipping the subtree under every hit, since nothing below a served
// node executes. Acquired handles pin their entries against eviction
// and invalidation-frees until end releases them.
func (e *Executor) beginCache(root *algebra.Node) {
	e.cacheHashes = nil
	e.cacheHits = nil
	if e.Cache == nil || root.Op == algebra.OpSourceVec || root.Op == algebra.OpSourceMat {
		return
	}
	h := e.Cache.HashDAG(root)
	if h == nil {
		return
	}
	e.cacheHashes = h
	e.cacheHits = make(map[*algebra.Node]*rescache.Handle)
	if k, ok := h.Key(root); ok {
		if hd, hit := e.Cache.Acquire(k); hit {
			e.cacheHits[root] = hd
			return
		}
	}
	seen := make(map[*algebra.Node]bool)
	var probe func(n *algebra.Node)
	probe = func(n *algebra.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n != root && n.Op != algebra.OpSourceVec && n.Op != algebra.OpSourceMat {
			if k, ok := h.Key(n); ok {
				if hd, hit := e.Cache.Acquire(k); hit {
					e.cacheHits[n] = hd
					return
				}
			}
		}
		for _, k := range n.Kids {
			probe(k)
		}
	}
	probe(root)
}

// cacheHit reports the handle acquired for n, if any. The map is
// written only in begin, so concurrent worker reads are safe.
func (e *Executor) cacheHit(n *algebra.Node) (*rescache.Handle, bool) {
	h, ok := e.cacheHits[n]
	return h, ok
}

// cachePlanView exposes the probe results to the planner, so the plan's
// cached steps are exactly the hits the executor will serve.
func (e *Executor) cachePlanView() *plan.CacheView {
	if e.cacheHashes == nil {
		return nil
	}
	return &plan.CacheView{
		Hit: func(n *algebra.Node) bool {
			_, ok := e.cacheHits[n]
			return ok
		},
		Installable: func(n *algebra.Node) bool {
			if _, hit := e.cacheHits[n]; hit {
				return false
			}
			if n.Op == algebra.OpSourceVec || n.Op == algebra.OpSourceMat {
				return false
			}
			_, ok := e.cacheHashes.Key(n)
			return ok
		},
		Describe: func(n *algebra.Node) string {
			if k, ok := e.cacheHashes.Key(n); ok {
				return k.String()
			}
			return ""
		},
	}
}

// maybeInstallVec offers a freshly materialized temporary to the result
// cache. Best-effort: refused admission, duplicate keys, or I/O errors
// never fail the query.
func (e *Executor) maybeInstallVec(n *algebra.Node, v *array.Vector) {
	if e.Cache == nil || e.cacheHashes == nil {
		return
	}
	if _, hit := e.cacheHits[n]; hit {
		return
	}
	if k, ok := e.cacheHashes.Key(n); ok {
		_, _ = e.Cache.InstallVector(k, e.cacheHashes.Deps(n), v)
	}
}

// maybeInstallMat is maybeInstallVec for dense matrix results (sparse
// results are not cached).
func (e *Executor) maybeInstallMat(n *algebra.Node, m *array.Matrix) {
	if e.Cache == nil || e.cacheHashes == nil || m == nil {
		return
	}
	if _, hit := e.cacheHits[n]; hit {
		return
	}
	if k, ok := e.cacheHashes.Key(n); ok {
		_, _ = e.Cache.InstallMatrix(k, e.cacheHashes.Deps(n), m)
	}
}

// streamInto evaluates n block by block into out. With Workers > 1 the
// output blocks are partitioned into contiguous block-aligned ranges,
// one range per worker; each output block has exactly one writer, so no
// two workers ever mutate the same frame.
func (e *Executor) streamInto(n *algebra.Node, out *array.Vector) error {
	w := e.workerCount(out.Blocks())
	if w > 1 {
		if err := e.prepareShared(n); err != nil {
			return err
		}
	}
	b := int64(e.pool.Device().BlockElems())
	win := e.announceWindow(w, n)
	return e.runParallel(w, out.Blocks(), func(_, klo, khi int) error {
		partEnd := min(int64(khi)*b, n.Shape.Rows)
		announced := int64(klo) * b
		for k := klo; k < khi; k++ {
			c, err := out.PinChunkNew(k)
			if err != nil {
				return err
			}
			announced = e.announceAhead(n, c.Lo, announced, win, partEnd)
			err = e.evalRange(n, c.Lo, c.Hi, c.Data())
			c.MarkDirty()
			c.Release()
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// lookupTemp reads the shared-subexpression memo; in a parallel section
// it takes the read lock.
func (e *Executor) lookupTemp(n *algebra.Node) (*array.Vector, bool) {
	if e.inParallel {
		e.tempsMu.RLock()
		defer e.tempsMu.RUnlock()
	}
	v, ok := e.temps[n]
	return v, ok
}

// storeTemp publishes a freshly materialized temporary. If a racing
// worker published the node first, the duplicate is freed and the
// winner's copy returned.
func (e *Executor) storeTemp(n *algebra.Node, v *array.Vector) *array.Vector {
	if e.inParallel {
		e.tempsMu.Lock()
		defer e.tempsMu.Unlock()
		if winner, ok := e.temps[n]; ok {
			v.Free()
			return winner
		}
	}
	e.temps[n] = v
	e.materialized.Add(1)
	return v
}

// shouldMaterialize reads the materialization policy from the plan's
// decision table (Heuristic reproduces the seed rules; CostBased
// decides from the cost formulas).
func (e *Executor) shouldMaterialize(n *algebra.Node) bool {
	return e.curPlan.ShouldMaterialize(n)
}

// materializeNode evaluates n into a fresh stored temporary and
// publishes it in the memo.
func (e *Executor) materializeNode(n *algebra.Node) (*array.Vector, error) {
	tmp, err := array.NewVector(e.pool, e.fresh("tmp"), n.Shape.Rows)
	if err != nil {
		return nil, err
	}
	if err := e.streamIntoRaw(n, tmp); err != nil {
		return nil, err
	}
	v := e.storeTemp(n, tmp)
	e.maybeInstallVec(n, v)
	return v, nil
}

// prepareShared runs before a parallel section: it executes the plan's
// preparation schedule for the subtree — every subexpression the
// sequential evaluator would have materialized lazily, plus the
// random-access sources gathers need, already in dependency order — so
// the memo is read-only while workers run.
func (e *Executor) prepareShared(root *algebra.Node) error {
	for _, s := range e.curPlan.PrepareSteps(root) {
		if _, ok := e.temps[s.Node]; ok {
			continue
		}
		if _, err := e.materializeNode(s.Node); err != nil {
			return err
		}
	}
	return nil
}

// announceRange tells the pool's I/O scheduler which source blocks the
// fused pipeline will stream to produce elements [lo, hi) of n: each
// parallel worker announces the window of its partition it is about to
// evaluate, so the scheduler sees bulky sequential requests per source
// instead of the interleaved single-block reads the workers would
// otherwise issue. Materialized temporaries are announced in place of
// their definitions; gathers (random access) and reductions/matrix ops
// (separate pipelines) are not announced. A no-op when the scheduler is
// disabled.
func (e *Executor) announceRange(n *algebra.Node, lo, hi int64) {
	if !e.pool.ReadaheadEnabled() {
		return
	}
	e.announce(n, lo, hi, make(map[*algebra.Node]bool))
}

// announceWindow sizes a worker's rolling announcement so that all w
// workers' prefetched windows across every source stream of n together
// stay well under the frame budget: prefetch that outruns the pool only
// evicts itself (a pipeline over x and y prefetching half the pool per
// stream would have each stream's claims flushing the other's). Returns
// the window in elements.
func (e *Executor) announceWindow(w int, n *algebra.Node) int64 {
	if w < 1 {
		w = 1
	}
	streams := countStreams(n, make(map[*algebra.Node]bool))
	if streams < 1 {
		streams = 1
	}
	blocks := e.pool.Capacity() / (2 * w * streams)
	if blocks < 2 {
		blocks = 2
	}
	return int64(blocks) * int64(e.pool.Device().BlockElems())
}

// countStreams counts the distinct stored vectors a fused pipeline will
// stream: the source leaves the announcement walk reaches.
func countStreams(n *algebra.Node, seen map[*algebra.Node]bool) int {
	if seen[n] {
		return 0
	}
	seen[n] = true
	switch n.Op {
	case algebra.OpSourceVec:
		return 1
	case algebra.OpGather, algebra.OpReduce, algebra.OpMatMul, algebra.OpSourceMat:
		return 0
	}
	total := 0
	for _, k := range n.Kids {
		total += countStreams(k, seen)
	}
	return total
}

// announceAhead keeps a worker's announced region ~win elements ahead of
// its cursor lo: it announces [announced, lo+win) and returns the new
// high-water mark. Announcing ahead (not at) the cursor lets the loads
// overlap the worker's compute, and the half-window hysteresis keeps the
// hints chunky — many small extensions would fragment the scheduler's
// vectored reads into short runs and waste the seeks readahead exists to
// save.
func (e *Executor) announceAhead(n *algebra.Node, lo, announced, win, partEnd int64) int64 {
	target := lo + win
	if target > partEnd {
		target = partEnd
	}
	if announced < lo {
		announced = lo
	}
	if announced >= target {
		return announced
	}
	if announced > lo && target-announced < win/2 {
		// Not yet half a window behind: wait so the next hint is bulky.
		return announced
	}
	e.announceRange(n, announced, target)
	return target
}

func (e *Executor) announce(n *algebra.Node, lo, hi int64, seen map[*algebra.Node]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	if h, ok := e.cacheHit(n); ok {
		if v := h.Vec(); v != nil {
			v.PrefetchRange(lo, hi)
		}
		return
	}
	if v, ok := e.lookupTemp(n); ok {
		v.PrefetchRange(lo, hi)
		return
	}
	switch n.Op {
	case algebra.OpSourceVec:
		if n.SVec != nil {
			n.SVec.PrefetchRange(lo, hi)
		} else {
			n.Vec.PrefetchRange(lo, hi)
		}
	case algebra.OpRange:
		e.announce(n.Kids[0], n.Lo+lo, n.Lo+hi, seen)
	case algebra.OpGather, algebra.OpReduce, algebra.OpMatMul, algebra.OpSourceMat:
		// Random access or a separate pipeline: no linear hint to give.
	default:
		for _, k := range n.Kids {
			e.announce(k, lo, hi, seen)
		}
	}
}

// evalRange computes elements [lo, hi) of n into buf (len hi-lo). This
// is the fused pipeline: one recursive descent per output block, no
// intermediate storage.
func (e *Executor) evalRange(n *algebra.Node, lo, hi int64, buf []float64) error {
	e.elementsComputed.Add(hi - lo)
	// Sparse short-circuit: a range the zero-propagation rules prove
	// all-zero is written without reading a single block — the fused
	// pipeline's union/intersection semantics over sparse operands.
	// Dense sources never prove zero, so the dense path is untouched.
	if e.rangeZero(n, lo, hi) {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	// A result-cache hit serves the node from its cross-session copy:
	// no recomputation, and (warm pool) no device reads.
	if h, ok := e.cacheHit(n); ok {
		return readVecRange(h.Vec(), lo, hi, buf)
	}
	// A shared, expensive subexpression is materialized once and then
	// served from its temporary. Cheap shared elementwise work is
	// recomputed instead: re-deriving a block costs a few flops, while a
	// temporary costs a full write and re-read of the vector.
	if v, ok := e.lookupTemp(n); ok {
		return readVecRange(v, lo, hi, buf)
	}
	if e.shouldMaterialize(n) {
		tmp, err := e.materializeNode(n)
		if err != nil {
			return err
		}
		return readVecRange(tmp, lo, hi, buf)
	}
	return e.evalRangeRaw(n, lo, hi, buf)
}

// streamIntoRaw is streamInto without the memoization check (used to
// fill the memo itself).
func (e *Executor) streamIntoRaw(n *algebra.Node, out *array.Vector) error {
	for k := 0; k < out.Blocks(); k++ {
		c, err := out.PinChunkNew(k)
		if err != nil {
			return err
		}
		err = e.evalRangeRaw(n, c.Lo, c.Hi, c.Data())
		c.MarkDirty()
		c.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Executor) evalRangeRaw(n *algebra.Node, lo, hi int64, buf []float64) error {
	switch n.Op {
	case algebra.OpSourceVec:
		if n.SVec != nil {
			return n.SVec.ReadRange(lo, hi, buf)
		}
		return readVecRange(n.Vec, lo, hi, buf)
	case algebra.OpElemUnary:
		if err := e.evalRange(n.Kids[0], lo, hi, buf); err != nil {
			return err
		}
		f, err := scalarop.UnarySlice(n.Fn)
		if err != nil {
			return err
		}
		f(buf, buf)
		e.addFlops(n.Fn, hi-lo)
		return nil
	case algebra.OpScalarOp:
		if err := e.evalRange(n.Kids[0], lo, hi, buf); err != nil {
			return err
		}
		f, err := scalarop.BinSliceScalar(n.BinOp, n.ScalarLeft)
		if err != nil {
			return err
		}
		f(buf, buf, n.Scalar)
		e.addFlops(n.BinOp, hi-lo)
		return nil
	case algebra.OpElemBinary:
		if err := e.evalRange(n.Kids[0], lo, hi, buf); err != nil {
			return err
		}
		rbuf := e.getScratch(int(hi - lo))
		defer e.putScratch(rbuf)
		if err := e.evalRange(n.Kids[1], lo, hi, rbuf); err != nil {
			return err
		}
		f, err := scalarop.BinSlices(n.BinOp)
		if err != nil {
			return err
		}
		f(buf, buf, rbuf)
		e.addFlops(n.BinOp, hi-lo)
		return nil
	case algebra.OpUpdateMask:
		if err := e.evalRange(n.Kids[0], lo, hi, buf); err != nil {
			return err
		}
		f, err := binFn(n.BinOp)
		if err != nil {
			return err
		}
		for i := range buf {
			if f(buf[i], n.Scalar) != 0 {
				buf[i] = n.Scalar2
			}
		}
		e.addFlops("mask"+n.BinOp, hi-lo)
		return nil
	case algebra.OpRange:
		return e.evalRange(n.Kids[0], n.Lo+lo, n.Lo+hi, buf)
	case algebra.OpGather:
		idx := e.getScratch(int(hi - lo))
		defer e.putScratch(idx)
		if err := e.evalRange(n.Kids[1], lo, hi, idx); err != nil {
			return err
		}
		return e.gather(n.Kids[0], idx, buf)
	case algebra.OpReduce:
		v, err := e.reduce(n.Fn, n.Kids[0])
		if err != nil {
			return err
		}
		if lo == 0 && hi == 1 {
			buf[0] = v
		}
		return nil
	case algebra.OpMatMul, algebra.OpSourceMat:
		return fmt.Errorf("exec: matrix node %s in vector pipeline", n.Op)
	}
	return fmt.Errorf("exec: unhandled op %s", n.Op)
}

// indexedVec is the random-access face a gather needs from its data
// source; dense and sparse stored vectors both wear it (sparse answers
// hits in empty chunks from the directory, with no I/O).
type indexedVec interface {
	Len() int64
	At(i int64) (float64, error)
}

// gather fetches data[idx[k]] for each k. The data child is a source
// after pushdown; anything else is materialized first.
func (e *Executor) gather(data *algebra.Node, idx []float64, buf []float64) error {
	var src indexedVec
	if data.Op == algebra.OpSourceVec {
		if data.SVec != nil {
			src = data.SVec
		} else {
			src = data.Vec
		}
	} else if h, ok := e.cacheHit(data); ok {
		src = h.Vec()
	} else if v, ok := e.lookupTemp(data); ok {
		src = v
	} else {
		tmp, err := e.materializeNode(data)
		if err != nil {
			return err
		}
		src = tmp
	}
	for k, fi := range idx {
		i := int64(fi)
		if i < 0 || i >= src.Len() {
			return fmt.Errorf("exec: gather index %d outside vector of %d", i, src.Len())
		}
		v, err := src.At(i)
		if err != nil {
			return err
		}
		buf[k] = v
	}
	return nil
}

// forcedMat is a matrix operand in whichever kind its producer stored:
// exactly one of d and s is non-nil. temp marks a fresh intermediate the
// consuming multiply frees after use (sources are never temp).
type forcedMat struct {
	d    *array.Matrix
	s    *sparse.Matrix
	temp bool
}

func (f forcedMat) free() {
	if !f.temp {
		return
	}
	if f.d != nil {
		f.d.Free()
	}
	if f.s != nil {
		f.s.Free()
	}
}

// rows/cols read the dimensions of whichever store is present.
func (f forcedMat) rows() int64 {
	if f.s != nil {
		return f.s.Rows()
	}
	return f.d.Rows()
}

func (f forcedMat) cols() int64 {
	if f.s != nil {
		return f.s.Cols()
	}
	return f.d.Cols()
}

// tileDims reads the tile geometry of whichever store is present.
func (f forcedMat) tileDims() (tr, tc int) {
	if f.s != nil {
		return f.s.TileDims()
	}
	return f.d.TileDims()
}

// densify returns a dense view of the operand, converting (as a fresh
// temporary) when it is sparse — the fallback for tile geometries the
// sparse kernels reject. The input is consumed: it is freed (when it
// was a temporary) whether the conversion succeeds or fails, so the
// caller's deferred free of the reassigned variable never leaks it.
func (e *Executor) densify(f forcedMat, name string) (forcedMat, error) {
	if f.s == nil {
		return f, nil
	}
	d, err := f.s.ToDense(e.pool, e.fresh(name+"_dense"))
	f.free()
	if err != nil {
		return forcedMat{}, err
	}
	return forcedMat{d: d, temp: true}, nil
}

// forceMatAny materializes a matrix node in its natural kind,
// dispatching multiplies to the kernel matching the operand kinds:
// sparse operands keep their tile directories all the way into the
// multiply, which is what lets the kernels skip empty tiles.
func (e *Executor) forceMatAny(n *algebra.Node, name string) (forcedMat, error) {
	switch n.Op {
	case algebra.OpSourceMat:
		return forcedMat{d: n.Mat, s: n.SMat}, nil
	case algebra.OpMatMul:
		if h, ok := e.cacheHit(n); ok && h.Mat() != nil {
			if n == e.curPlan.Root {
				// The root result outlives this Force call (and so the
				// handle released in end); hand the caller a copy it
				// owns, so a later eviction cannot free blocks under it.
				cp, err := copyCachedMatrix(e.pool, e.fresh(name+"_hit"), h.Mat())
				return forcedMat{d: cp, temp: true}, err
			}
			// Interior hit: the handle stays held until end, so the
			// cached store itself is safe to use in place.
			return forcedMat{d: h.Mat(), temp: false}, nil
		}
		a, err := e.forceMatAny(n.Kids[0], e.fresh(name+"_l"))
		if err != nil {
			return forcedMat{}, err
		}
		b, err := e.forceMatAny(n.Kids[1], e.fresh(name+"_r"))
		if err != nil {
			a.free()
			return forcedMat{}, err
		}
		defer func() {
			// Intermediates (not sources) are freed after use.
			a.free()
			b.free()
		}()
		e.elementsComputed.Add(a.rows() * b.cols())
		// The node's ring selects the kernel arithmetic, and the flop
		// counter is labelled per ring.
		ring, err := scalarop.Ring(n.Ring)
		if err != nil {
			return forcedMat{}, err
		}
		matmulOp := "matmul"
		if n.Ring != "" {
			matmulOp = "matmul[" + n.Ring + "]"
		}
		// Sparse kernels need matching square tiles; a mixed-geometry
		// operand (e.g. a row-tiled BNLJ intermediate against a sparse
		// source) densifies the sparse side and takes the dense path.
		if (a.s != nil || b.s != nil) && !sparseTilesAligned(a, b) {
			if a, err = e.densify(a, name+"_l"); err != nil {
				return forcedMat{}, err
			}
			if b, err = e.densify(b, name+"_r"); err != nil {
				return forcedMat{}, err
			}
		}
		switch {
		case a.s != nil && b.s != nil:
			e.addFlops(matmulOp, sparseProductFlops(a.s.NNZ(), b.s.NNZ(), a.cols()))
			t, err := linalg.MatMulSparseSparse(e.pool, name, a.s, b.s, ring)
			return forcedMat{s: t, temp: true}, err
		case a.s != nil:
			e.addFlops(matmulOp, a.s.NNZ()*b.cols())
			t, err := linalg.MatMulSparseDense(e.pool, name, a.s, b.d, ring)
			if err == nil {
				e.maybeInstallMat(n, t)
			}
			return forcedMat{d: t, temp: true}, err
		case b.s != nil:
			e.addFlops(matmulOp, b.s.NNZ()*a.rows())
			t, err := linalg.MatMulDenseSparse(e.pool, name, a.d, b.s, ring)
			if err == nil {
				e.maybeInstallMat(n, t)
			}
			return forcedMat{d: t, temp: true}, err
		}
		e.addFlops(matmulOp, a.rows()*a.cols()*b.cols())
		// The kernel was selected at plan time from the same cost
		// formulas the seed consulted here.
		var t *array.Matrix
		if !ring.IsStandard() {
			// Non-standard rings have no BNLJ or packed path: take the
			// tiled ring schedule when the tiling permits it, else the
			// naive triple loop.
			atr, atc := a.d.TileDims()
			btr, btc := b.d.TileDims()
			if atr == atc && btr == btc && atr == btr {
				t, err = linalg.MatMulTiled(e.pool, name, a.d, b.d, e.Workers, ring)
			} else {
				t, err = linalg.MatMulNaiveRing(e.pool, name, a.d, b.d,
					array.Options{Shape: array.SquareTiles, Lin: a.d.Lin()}, ring)
			}
		} else {
			switch e.curPlan.Algo(n) {
			case plan.AlgoSquareTiled:
				t, err = linalg.MatMulTiled(e.pool, name, a.d, b.d, e.Workers, ring)
			case plan.AlgoBNLJSquare:
				// Square tiling but BNLJ is cheaper at this size.
				t, err = linalg.MatMulBNLJ(e.pool, name, a.d, b.d, array.Options{Shape: array.SquareTiles, Lin: a.d.Lin()})
			default:
				t, err = linalg.MatMulBNLJ(e.pool, name, a.d, b.d, array.Options{Shape: array.RowTiles})
			}
		}
		if err == nil {
			e.maybeInstallMat(n, t)
		}
		return forcedMat{d: t, temp: true}, err
	}
	return forcedMat{}, fmt.Errorf("exec: cannot force matrix op %s", n.Op)
}

// copyCachedMatrix tile-copies a cache-owned matrix into a fresh store
// the caller's session owns (same dims, shape, and linearization).
func copyCachedMatrix(pool *buffer.Pool, name string, src *array.Matrix) (*array.Matrix, error) {
	dst, err := array.NewMatrix(pool, name, src.Rows(), src.Cols(),
		array.Options{Shape: src.Shape(), Lin: src.Lin()})
	if err != nil {
		return nil, err
	}
	gr, gc := src.GridDims()
	for ti := 0; ti < gr; ti++ {
		for tj := 0; tj < gc; tj++ {
			st, err := src.PinTile(ti, tj)
			if err != nil {
				dst.Free()
				return nil, err
			}
			dt, err := dst.PinTileNew(ti, tj)
			if err != nil {
				st.Release()
				dst.Free()
				return nil, err
			}
			copy(dt.Data(), st.Data())
			dt.MarkDirty()
			dt.Release()
			st.Release()
		}
	}
	return dst, nil
}

// sparseTilesAligned reports whether the operands' tile geometries meet
// the sparse kernels' precondition (equal square tiles).
func sparseTilesAligned(a, b forcedMat) bool {
	atr, atc := a.tileDims()
	btr, btc := b.tileDims()
	return atr == atc && btr == btc && atr == btr
}

// sparseProductFlops estimates the scalar multiplications of a
// sparse×sparse product: each stored nonzero of a meets the nonzeros of
// one b row (nnzB/m of them on average).
func sparseProductFlops(nnzA, nnzB, m int64) int64 {
	if m == 0 {
		return 0
	}
	return nnzA * nnzB / m
}

func readVecRange(v *array.Vector, lo, hi int64, buf []float64) error {
	b := int64(v.Pool().Device().BlockElems())
	for lo < hi {
		k := int(lo / b)
		c, err := v.PinChunk(k)
		if err != nil {
			return err
		}
		n := min(hi, c.Hi) - lo
		copy(buf[:n], c.Data()[lo-c.Lo:lo-c.Lo+n])
		c.Release()
		buf = buf[n:]
		lo += n
	}
	return nil
}

// binFn and unaryFn resolve operators in the shared scalar-op table.
func binFn(op string) (scalarop.BinFunc, error)       { return scalarop.Bin(op) }
func unaryFn(name string) (scalarop.UnaryFunc, error) { return scalarop.Unary(name) }
