// Package riot is the public API of the RIOT reproduction: I/O-efficient
// numerical computing without SQL (Zhang, Herodotou, Yang — CIDR 2009).
//
// A Session wraps one evaluation backend. The Backend selects which of
// the paper's systems executes the work: plain R semantics over paged
// virtual memory, one of the three RIOT-DB variants over an embedded
// relational engine, or the next-generation RIOT engine (expression DAG,
// rule-based optimizer, tiled array store). Programs can be written
// either against the Go API (Vector/Matrix handles) or as riotscript —
// an R subset — via RunScript; the same script runs on every backend.
//
//	s := riot.NewSession(riot.Config{Backend: riot.BackendRIOT})
//	x, _ := s.SeqVector(1 << 20)
//	d, _ := x.Sub(3).Square().Add(x.Sub(4).Square()).Sqrt()
//	head, _ := d.Head(10)
//
// Two Config knobs scale the RIOT backend beyond the paper's sequential
// measurements: Workers parallelizes the executor and kernels over a
// sharded buffer pool, and Readahead enables the I/O scheduler
// underneath it (asynchronous prefetch, vectored device I/O, elevator
// write-back). The paper-faithful configuration is Workers: 1 with
// Readahead left false — it reproduces the seed's I/O counters exactly.
//
// The RIOT backend evaluates through an explicit physical planner.
// Config.Planner selects the strategy — PlannerHeuristic (the default,
// reproducing the paper's hard-coded policy) or PlannerCostBased
// (decisions derived from the analytic I/O formulas and the live M/B
// machine parameters) — and Session.Explain (or Vector.Explain /
// Matrix.Explain) returns the rendered plan for an expression:
// per-node pipeline/materialize decisions, the materialization and
// multiply schedule, and per-step estimated I/O in blocks and
// simulated seconds, all without executing anything.
package riot

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"riot/internal/array"
	"riot/internal/engine"
	"riot/internal/plan"
	"riot/internal/riotdb"
	"riot/internal/rlang"
	"riot/internal/sparse"
)

// Backend selects the evaluation engine.
type Backend int

// Available backends.
const (
	// BackendRIOT is the next-generation engine of §5 (default).
	BackendRIOT Backend = iota
	// BackendPlainR emulates R: eager evaluation in paged virtual memory.
	BackendPlainR
	// BackendStrawman is RIOT-DB materializing every operation.
	BackendStrawman
	// BackendMatNamed is RIOT-DB materializing named objects only.
	BackendMatNamed
	// BackendFullDB is RIOT-DB with full view deferral.
	BackendFullDB
)

// Planner selects the RIOT backend's physical-plan strategy.
type Planner int

// Available planner strategies.
const (
	// PlannerHeuristic is the seed executor's materialization policy,
	// applied at plan time (default; I/O-deterministic at Workers: 1).
	PlannerHeuristic Planner = iota
	// PlannerCostBased derives plan decisions from the paper's analytic
	// I/O cost formulas and the live machine parameters.
	PlannerCostBased
)

func (p Planner) strategy() plan.Strategy {
	if p == PlannerCostBased {
		return plan.CostBased
	}
	return plan.Heuristic
}

// WALSync selects the durability mode of a database's write-ahead log
// (riot.Open only; NewSession has no catalog to log).
type WALSync int

// WAL durability modes.
const (
	// WALSyncAlways (the default) acknowledges each publish only after
	// an fsync'd group flush of the log: acknowledged commits survive
	// kill -9. Concurrent sessions' appends share fsyncs (group
	// commit), so throughput degrades far less than one-fsync-per-
	// publish would suggest.
	WALSyncAlways WALSync = iota
	// WALSyncInterval acknowledges publishes immediately and fsyncs
	// the log on a background timer (WALFlushInterval); a crash can
	// lose at most the last interval's publishes.
	WALSyncInterval
	// WALSyncOff disables the log entirely: the database is
	// checkpoint-only, and publishes since the last Checkpoint die with
	// the process. Checkpoints use the same on-disk format as the other
	// modes, so a directory can move between modes.
	WALSyncOff
)

// Config sizes the simulated machine.
type Config struct {
	Backend Backend
	// BlockElems is the disk block / VM page size in float64 elements
	// (the paper's B). Default 1024.
	BlockElems int
	// MemElems is the memory budget in float64 elements (the paper's M).
	// Default 1<<22 (32 MiB).
	MemElems int64
	// RuntimePages reserves part of memory for the language runtime
	// (plain R backend only). Default 24 pages.
	RuntimePages int
	// Workers bounds the goroutines the RIOT backend uses for fused
	// streaming, reductions, and the tiled matrix kernels (the buffer
	// pool is sharded to match). Default runtime.GOMAXPROCS(0).
	// Workers: 1 runs the sequential executor, whose I/O counts are
	// deterministic and reproduce the paper's measurements exactly.
	// Other backends are single-threaded and ignore it.
	Workers int
	// Planner selects the RIOT backend's physical-plan strategy. The
	// default, PlannerHeuristic, reproduces the seed executor's
	// materialization policy (and, at Workers: 1 with Readahead off,
	// its exact I/O counters). PlannerCostBased derives every
	// pipeline/materialize decision from the analytic cost formulas and
	// the live machine parameters, so shared subexpressions whose
	// inputs fit in memory are recomputed from the buffer pool instead
	// of written to disk. Other backends ignore it.
	Planner Planner
	// Readahead enables the RIOT backend's I/O scheduler: an
	// asynchronous prefetcher under the buffer pool (explicit hints from
	// the executor and kernels plus adaptive sequential readahead),
	// vectored device reads for contiguous runs, and elevator write-back
	// that flushes dirty frames in batches sorted by block. It trades
	// strict I/O determinism for bulky, sequential device traffic —
	// fewer random positionings, lower simulated time. Default off: the
	// I/O counters then match the seed engine's exactly, which is what
	// the paper's experiments and the golden tests rely on. Other
	// backends ignore it.
	Readahead bool
	// Time is the simulated-hardware model; zero value uses defaults.
	Time engine.TimeModel
	// SessionFrames is the pinned-frame quota of each session admitted
	// by a database opened with Open: the share of the shared buffer
	// pool one session may hold pinned at once. Default: a quarter of
	// the pool. Ignored by NewSession, whose session owns its whole
	// pool.
	SessionFrames int
	// MaxSessions bounds how many database sessions may be admitted
	// concurrently (admission control; DB.NewSession blocks while the
	// table is full). Default: pool capacity / SessionFrames. Ignored by
	// NewSession.
	MaxSessions int
	// WALSync selects the database's write-ahead-log durability mode:
	// WALSyncAlways (default — every acknowledged publish survives a
	// crash), WALSyncInterval (bounded loss window), or WALSyncOff
	// (checkpoint-only, no log). The log lives on the host filesystem
	// next to the catalog; its I/O is never charged to the simulated
	// device, so the paper's counters are identical in every mode.
	// Ignored by NewSession.
	WALSync WALSync
	// WALFlushInterval is the background fsync period under
	// WALSyncInterval. Default 50ms. Ignored in other modes.
	WALFlushInterval time.Duration
	// ResultCache enables the database's shared cross-session result
	// cache: materialized intermediates are memoized under a canonical
	// structural hash of their expression DAG plus the catalog version
	// of every published leaf, so sessions replaying a shared workload
	// serve each other's results with zero device reads. Republishing
	// or deleting a leaf changes the versions in the key, so stale hits
	// are structurally impossible. Off by default — with the cache off
	// every code path and I/O counter is byte-identical to the
	// cache-free engine. Ignored by NewSession (no catalog, no
	// published leaves, nothing cacheable).
	ResultCache bool
	// ResultCacheQuota is the result cache's storage budget in float64
	// elements, charged to the shared buffer pool as a dedicated
	// admission-controlled share and reclaimed by LRU eviction. Default
	// MemElems/4. Ignored unless ResultCache is set.
	ResultCacheQuota int64
}

// Session is a handle to one engine instance. Sessions from NewSession
// own a private engine; sessions from DB.NewSession share the database's
// device, buffer pool, and catalog. Either way, Close releases the
// session's resources — database sessions leak pool frames and storage
// until it is called.
type Session struct {
	eng    engine.Engine
	db     *DB
	seq    int64 // admission sequence in the DB (0 for standalone)
	closed atomic.Bool
}

// Close releases the session: in-flight prefetches are drained, the
// session's arrays and temporaries are dropped from the buffer pool and
// their storage freed, and (for database sessions) the admission slot is
// returned. Close is idempotent; using the session afterwards is an
// error. Published catalog objects are unaffected — surviving the
// session is what publishing means.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if err := s.eng.Close(); err != nil {
		// Still open: the engine refused (frames pinned). Keep the
		// admission slot and stay retryable rather than returning a
		// wedged session's share of the pool to the admission counter.
		s.closed.Store(false)
		return err
	}
	if s.db != nil {
		s.db.release(s)
	}
	return nil
}

// NewSession creates a session with the given configuration.
func NewSession(cfg Config) *Session {
	if cfg.BlockElems == 0 {
		cfg.BlockElems = 1024
	}
	if cfg.MemElems == 0 {
		cfg.MemElems = 1 << 22
	}
	if cfg.RuntimePages == 0 {
		cfg.RuntimePages = 24
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Time == (engine.TimeModel{}) {
		cfg.Time = engine.DefaultTimeModel
	}
	var e engine.Engine
	switch cfg.Backend {
	case BackendPlainR:
		pages := int(cfg.MemElems/int64(cfg.BlockElems)) + cfg.RuntimePages
		e = engine.NewPlainR(cfg.BlockElems, pages, cfg.RuntimePages, cfg.Time)
	case BackendStrawman:
		e = engine.NewRIOTDB(riotdb.Strawman, cfg.BlockElems, cfg.MemElems, cfg.Time)
	case BackendMatNamed:
		e = engine.NewRIOTDB(riotdb.MatNamed, cfg.BlockElems, cfg.MemElems, cfg.Time)
	case BackendFullDB:
		e = engine.NewRIOTDB(riotdb.Full, cfg.BlockElems, cfg.MemElems, cfg.Time)
	default:
		e = engine.NewRIOTConfigured(cfg.BlockElems, cfg.MemElems, cfg.Time, engine.RIOTOptions{
			Workers:   cfg.Workers,
			Readahead: cfg.Readahead,
			Planner:   cfg.Planner.strategy(),
		})
	}
	return &Session{eng: e}
}

// EngineName reports which backend the session runs on.
func (s *Session) EngineName() string { return s.eng.Name() }

// Engine exposes the underlying engine for advanced use (stats, ablation
// knobs on the RIOT backend).
func (s *Session) Engine() engine.Engine { return s.eng }

// Report returns resource usage since the last ResetStats.
func (s *Session) Report() engine.Report { return s.eng.Report() }

// ResetStats zeroes the usage counters.
func (s *Session) ResetStats() { s.eng.ResetStats() }

// explain renders the physical plan for an engine value. Only the RIOT
// backend plans physically; other backends return an error.
func (s *Session) explain(val engine.Value) (string, error) {
	rt, ok := s.eng.(*engine.RIOT)
	if !ok {
		return "", fmt.Errorf("riot: Explain requires the RIOT backend (engine %q)", s.eng.Name())
	}
	return rt.Explain(val)
}

// Explain returns the rendered physical plan for a vector expression:
// per-node pipeline/materialize decisions, the materialization and
// multiply schedule, and per-step estimated I/O in blocks and simulated
// seconds. Nothing is executed. RIOT backend only.
func (s *Session) Explain(v *Vector) (string, error) { return s.explain(v.val) }

// Explain renders the physical plan of the deferred expression this
// handle denotes (see Session.Explain).
func (v *Vector) Explain() (string, error) { return v.s.explain(v.val) }

// Explain renders the physical plan of the deferred matrix expression,
// including the multiply algorithm chosen for every %*% node (see
// Session.Explain).
func (m *Matrix) Explain() (string, error) { return m.s.explain(m.val) }

// RunScript executes a riotscript program and returns its printed output.
func (s *Session) RunScript(src string) (string, error) {
	in := s.Interp()
	if err := in.Run(src); err != nil {
		return in.Out.String(), err
	}
	return in.Out.String(), nil
}

// Interp returns a fresh riotscript interpreter bound to the session's
// engine, for callers that want to pre-bind variables. On a database
// session the interpreter is additionally bound to the shared catalog:
// top-level assignments publish named arrays and variable reads see
// other sessions' published objects (last-writer-wins).
func (s *Session) Interp() *rlang.Interp {
	in := rlang.New(s.eng)
	if s.db != nil {
		in.Globals = sessionGlobals{s: s}
	}
	return in
}

// Vector is a deferred (or eager, depending on backend) vector handle.
type Vector struct {
	s   *Session
	val engine.Value
}

// Matrix is a matrix handle.
type Matrix struct {
	s   *Session
	val engine.Value
}

// NewVector creates a vector of length n with values gen(i) (0-based).
func (s *Session) NewVector(n int64, gen func(i int64) float64) (*Vector, error) {
	v, err := s.eng.NewVector(n, gen)
	if err != nil {
		return nil, err
	}
	return &Vector{s: s, val: v}, nil
}

// SeqVector creates the vector 0, 1, ..., n-1.
func (s *Session) SeqVector(n int64) (*Vector, error) {
	return s.NewVector(n, func(i int64) float64 { return float64(i) })
}

// NewMatrix creates a rows×cols matrix with values gen(i, j).
func (s *Session) NewMatrix(rows, cols int64, gen func(i, j int64) float64) (*Matrix, error) {
	m, err := s.eng.NewMatrix(rows, cols, gen)
	if err != nil {
		return nil, err
	}
	return &Matrix{s: s, val: m}, nil
}

// Sample draws k distinct indices from [0, n) deterministically.
func (s *Session) Sample(n, k int64, seed uint64) (*Vector, error) {
	v, err := s.eng.Sample(n, k, seed)
	if err != nil {
		return nil, err
	}
	return &Vector{s: s, val: v}, nil
}

// Len returns the vector length.
func (v *Vector) Len() int64 { return v.s.eng.Length(v.val) }

func (v *Vector) lift(val engine.Value, err error) (*Vector, error) {
	if err != nil {
		return nil, err
	}
	return &Vector{s: v.s, val: val}, nil
}

// AddV adds two vectors elementwise.
func (v *Vector) AddV(o *Vector) (*Vector, error) { return v.lift(v.s.eng.Arith("+", v.val, o.val)) }

// MulV multiplies two vectors elementwise.
func (v *Vector) MulV(o *Vector) (*Vector, error) { return v.lift(v.s.eng.Arith("*", v.val, o.val)) }

// Add adds a scalar.
func (v *Vector) Add(c float64) (*Vector, error) {
	return v.lift(v.s.eng.ArithScalar("+", v.val, c, false))
}

// Sub subtracts a scalar.
func (v *Vector) Sub(c float64) (*Vector, error) {
	return v.lift(v.s.eng.ArithScalar("-", v.val, c, false))
}

// Mul multiplies by a scalar.
func (v *Vector) Mul(c float64) (*Vector, error) {
	return v.lift(v.s.eng.ArithScalar("*", v.val, c, false))
}

// Square squares elementwise.
func (v *Vector) Square() (*Vector, error) { return v.lift(v.s.eng.Arith("*", v.val, v.val)) }

// Sqrt takes elementwise square roots.
func (v *Vector) Sqrt() (*Vector, error) { return v.lift(v.s.eng.Map("sqrt", v.val)) }

// Apply maps a named function (sqrt, abs, exp, log, sin, cos).
func (v *Vector) Apply(fn string) (*Vector, error) { return v.lift(v.s.eng.Map(fn, v.val)) }

// Gather returns v[idx] for a 0-based index vector.
func (v *Vector) Gather(idx *Vector) (*Vector, error) {
	return v.lift(v.s.eng.IndexBy(v.val, idx.val))
}

// Slice returns v[lo:hi) (0-based).
func (v *Vector) Slice(lo, hi int64) (*Vector, error) {
	return v.lift(v.s.eng.Range(v.val, lo, hi))
}

// UpdateWhere returns a new state with v[v cmp thresh] <- val.
func (v *Vector) UpdateWhere(cmp string, thresh, val float64) (*Vector, error) {
	return v.lift(v.s.eng.UpdateWhere(v.val, cmp, thresh, val))
}

// Head fetches the first k values, forcing evaluation.
func (v *Vector) Head(k int64) ([]float64, error) { return v.s.eng.Fetch(v.val, k) }

// Values fetches every value, forcing evaluation.
func (v *Vector) Values() ([]float64, error) { return v.s.eng.Fetch(v.val, -1) }

// Sum forces evaluation of the total.
func (v *Vector) Sum() (float64, error) { return v.s.eng.Sum(v.val) }

// sparseEng returns the session engine's sparse capability, if any.
func (s *Session) sparseEng() (engine.SparseEngine, bool) {
	se, ok := s.eng.(engine.SparseEngine)
	return se, ok
}

// Sparse forces the vector and returns a handle backed by
// tile-compressed sparse storage: all-zero chunks occupy no blocks, and
// downstream pipelines skip ranges the zero-propagation rules prove
// empty. On backends without a sparse array kind it is the identity.
func (v *Vector) Sparse() (*Vector, error) {
	se, ok := v.s.sparseEng()
	if !ok {
		return v, nil
	}
	return v.lift(se.ToSparse(v.val))
}

// Dense converts a sparse vector handle back to dense tiles (identity
// for dense handles and kind-free backends).
func (v *Vector) Dense() (*Vector, error) {
	se, ok := v.s.sparseEng()
	if !ok {
		return v, nil
	}
	return v.lift(se.ToDense(v.val))
}

// NNZ forces the vector and returns its nonzero count — answered from
// the sparse directory, without I/O, for sparse handles.
func (v *Vector) NNZ() (int64, error) {
	if se, ok := v.s.sparseEng(); ok {
		return se.NNZ(v.val)
	}
	vals, err := v.Values()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, x := range vals {
		if x != 0 {
			n++
		}
	}
	return n, nil
}

func (m *Matrix) lift(val engine.Value, err error) (*Matrix, error) {
	if err != nil {
		return nil, err
	}
	return &Matrix{s: m.s, val: val}, nil
}

// Sparse forces the matrix and returns a tile-compressed sparse handle:
// all-zero tiles occupy no blocks, multiplies dispatch to tile-skipping
// sparse kernels, and publishing keeps the compressed form. Identity on
// backends without a sparse array kind.
func (m *Matrix) Sparse() (*Matrix, error) {
	se, ok := m.s.sparseEng()
	if !ok {
		return m, nil
	}
	return m.lift(se.ToSparse(m.val))
}

// Stored forces the matrix and returns the stored array behind it in its
// natural kind: exactly one of dense and sp is non-nil. Storage-level
// callers in this module (the cluster coordinator) read it tile by tile
// instead of fetching a row-major copy. RIOT backend only.
func (m *Matrix) Stored() (dense *array.Matrix, sp *sparse.Matrix, err error) {
	rt, ok := m.s.eng.(*engine.RIOT)
	if !ok {
		return nil, nil, fmt.Errorf("riot: stored arrays require the RIOT backend (engine %q)", m.s.eng.Name())
	}
	return rt.ForceAnyMatrix(m.val)
}

// NewSparseMatrix builds a rows×cols sparse matrix tile by tile: fill
// sets the tiles through the Builder, with no dense intermediate (the
// cluster node's install path for shipped nonzeros). side is the square
// tile side the caller's tiles were cut to; it must match the session's.
// RIOT backend only.
func (s *Session) NewSparseMatrix(rows, cols int64, side int, fill func(*sparse.Builder) error) (*Matrix, error) {
	rt, ok := s.eng.(*engine.RIOT)
	if !ok {
		return nil, fmt.Errorf("riot: stored arrays require the RIOT backend (engine %q)", s.eng.Name())
	}
	v, err := rt.NewSparseMatrix(rows, cols, side, fill)
	if err != nil {
		return nil, err
	}
	return &Matrix{s: s, val: v}, nil
}

// Dense converts a sparse matrix handle back to dense tiles (identity
// for dense handles and kind-free backends).
func (m *Matrix) Dense() (*Matrix, error) {
	se, ok := m.s.sparseEng()
	if !ok {
		return m, nil
	}
	return m.lift(se.ToDense(m.val))
}

// NNZ forces the matrix and returns its nonzero count — free for sparse
// handles, a full scan for dense ones.
func (m *Matrix) NNZ() (int64, error) {
	if se, ok := m.s.sparseEng(); ok {
		return se.NNZ(m.val)
	}
	vals, err := m.Values()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, x := range vals {
		if x != 0 {
			n++
		}
	}
	return n, nil
}

// Force evaluates the deferred matrix expression end to end, in its
// natural kind, without fetching any elements, then discards the
// result — the way to measure a kernel's I/O without billing a result
// scan to it. Repeated calls re-run the evaluation and do not grow the
// device. Eager backends have nothing to do beyond a zero-length
// fetch.
func (m *Matrix) Force() error {
	if rt, ok := m.s.eng.(*engine.RIOT); ok {
		return rt.ForceDiscard(m.val)
	}
	_, err := m.s.eng.Fetch(m.val, 0)
	return err
}

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int64, int64) {
	r, c, _ := m.s.eng.Dims(m.val)
	return r, c
}

// MatMul multiplies two matrices.
func (m *Matrix) MatMul(o *Matrix) (*Matrix, error) {
	v, err := m.s.eng.MatMul(m.val, o.val)
	if err != nil {
		return nil, err
	}
	return &Matrix{s: m.s, val: v}, nil
}

// MatMulRing multiplies two matrices over a named semi-ring ("standard",
// "minplus", "maxplus", "boolean"; "" means standard). On backends with
// semi-ring kernels the ring travels into the engine's plans and
// kernels; other backends reject non-standard rings.
func (m *Matrix) MatMulRing(o *Matrix, ring string) (*Matrix, error) {
	if re, ok := m.s.eng.(engine.RingEngine); ok {
		return m.lift(re.MatMulRing(m.val, o.val, ring))
	}
	if ring == "" || ring == "standard" {
		return m.MatMul(o)
	}
	return nil, fmt.Errorf("riot: engine %s has no semi-ring kernels", m.s.eng.Name())
}

// Closure computes the reflexive-transitive closure of a square matrix
// over a named semi-ring by repeated squaring — over "minplus", the
// all-pairs shortest-path distances of the weighted graph the matrix
// encodes (absent/zero entries mean "no edge", the diagonal comes out
// 0). The result is dense.
func (m *Matrix) Closure(ring string) (*Matrix, error) {
	if re, ok := m.s.eng.(engine.RingEngine); ok {
		return m.lift(re.Closure(m.val, ring))
	}
	return nil, fmt.Errorf("riot: engine %s has no semi-ring kernels", m.s.eng.Name())
}

// Values fetches the full matrix row-major, forcing evaluation.
func (m *Matrix) Values() ([]float64, error) { return m.s.eng.Fetch(m.val, -1) }

// At forces evaluation of a single cell.
func (m *Matrix) At(i, j int64) (float64, error) {
	r, c, _ := m.s.eng.Dims(m.val)
	if i < 0 || i >= r || j < 0 || j >= c {
		return 0, fmt.Errorf("riot: index (%d,%d) outside %dx%d matrix", i, j, r, c)
	}
	vals, err := m.s.eng.Fetch(m.val, i*c+j+1)
	if err != nil {
		return 0, err
	}
	return vals[i*c+j], nil
}
