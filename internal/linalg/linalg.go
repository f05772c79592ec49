// Package linalg implements RIOT's out-of-core linear algebra kernels
// over the tiled array store, under an enforced buffer-pool budget:
//
//   - MatMulTiled: the Appendix A schedule — square p×p submatrices with
//     p ≈ √(M/3), three submatrices pinned at a time, achieving
//     Θ(lmn/(B√M)) block I/Os with square tiling.
//   - MatMulBNLJ: the §3 algorithm inspired by block nested-loop join —
//     as many rows of A as fit, re-scanning B once per chunk.
//   - MatMulNaive: R's own Example 2 triple loop, honoring whatever
//     layout the operands have (the baseline that melts down with
//     column-major A).
//   - LU: blocked right-looking LU decomposition (the algebra's direct
//     solver), Transpose, and triangular solves.
//
// Every kernel works tile-by-tile through the pool, so its measured I/O
// can be compared against internal/costmodel's formulas (experiment E6).
package linalg

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/scalarop"
)

// MatMulNaive multiplies a (l×m) by b (m×n) into a fresh matrix with
// opts layout, using the element-at-a-time loop of Example 2. Intended
// for small inputs and layout experiments; its I/O profile depends
// entirely on the operand layouts.
func MatMulNaive(pool *buffer.Pool, name string, a, b *array.Matrix, opts array.Options) (*array.Matrix, error) {
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	t, err := array.NewMatrix(pool, name, a.Rows(), b.Cols(), opts)
	if err != nil {
		return nil, err
	}
	for j := int64(0); j < b.Cols(); j++ {
		for i := int64(0); i < a.Rows(); i++ {
			var sum float64
			for k := int64(0); k < a.Cols(); k++ {
				av, err := a.At(i, k)
				if err != nil {
					return nil, err
				}
				bv, err := b.At(k, j)
				if err != nil {
					return nil, err
				}
				sum += av * bv
			}
			if err := t.Set(i, j, sum); err != nil {
				return nil, err
			}
		}
	}
	return t, pool.FlushAll()
}

// MatMulBNLJ multiplies with the block-nested-loop-join-inspired
// schedule: chunks of rows of A stay pinned while B streams by column.
// A should be row-tiled and B column-tiled for the intended I/O profile.
func MatMulBNLJ(pool *buffer.Pool, name string, a, b *array.Matrix, opts array.Options) (*array.Matrix, error) {
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	l, m, n := a.Rows(), a.Cols(), b.Cols()
	t, err := array.NewMatrix(pool, name, l, n, opts)
	if err != nil {
		return nil, err
	}
	// How many rows of A fit: the chunk's A rows and T rows stay in
	// host buffers (counted against M), plus one block for streaming B.
	// Degenerate 0-width shapes (m+n == 0) take any chunk size — the
	// loops below are vacuous either way.
	memElems := pool.MemoryElems()
	rows := int64(1)
	if m+n > 0 {
		rows = (memElems - int64(pool.Device().BlockElems())) / (m + n)
	}
	if rows < 1 {
		rows = 1
	}
	achunk := make([]float64, 0)
	tchunk := make([]float64, 0)
	for r0 := int64(0); r0 < l; r0 += rows {
		r1 := min(r0+rows, l)
		h := r1 - r0
		// Load A rows [r0, r1) into a host-side chunk (charged as reads
		// of A's tiles).
		achunk = achunk[:0]
		if cap(achunk) < int(h*m) {
			achunk = make([]float64, 0, h*m)
		}
		for i := r0; i < r1; i++ {
			for k := int64(0); k < m; k++ {
				v, err := a.At(i, k)
				if err != nil {
					return nil, err
				}
				achunk = append(achunk, v)
			}
		}
		tchunk = tchunk[:0]
		if cap(tchunk) < int(h*n) {
			tchunk = make([]float64, 0, h*n)
		}
		tchunk = append(tchunk, make([]float64, h*n)...)
		// Stream B column by column.
		for j := int64(0); j < n; j++ {
			for k := int64(0); k < m; k++ {
				bv, err := b.At(k, j)
				if err != nil {
					return nil, err
				}
				if bv == 0 {
					continue
				}
				for i := int64(0); i < h; i++ {
					tchunk[i*n+j] += achunk[i*m+k] * bv
				}
			}
		}
		for i := int64(0); i < h; i++ {
			for j := int64(0); j < n; j++ {
				if err := t.Set(r0+i, j, tchunk[i*n+j]); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, pool.FlushAll()
}

// MatMulTiled multiplies square-tiled matrices over ring with the
// Appendix A schedule. Memory is split three ways; each part holds a
// q×q block of tiles (q = √(frames/3)), i.e. a p×p submatrix with
// p = q·√B ≈ √(M/3).
//
// The output super-blocks are dispatched to up to workers goroutines.
// Each in-flight worker pins three q×q tile blocks at once, so the
// super-block side is shrunk to q = √(capacity/(3·W)) and the in-flight
// worker count is capped at capacity / (3·q²): the kernel never holds
// more pinned frames than the pool's budget no matter how many workers
// are requested. Workers produce disjoint output super-blocks (input
// tiles are shared read-only), and each output tile accumulates its
// k-products in the same order as the sequential schedule, so the
// result is bit-identical for any worker count. workers <= 1 runs the
// exact sequential schedule.
//
// The schedule — super-block sizing, pin/prefetch/flush order, worker
// clamping — is ring-independent; the ring only selects the arithmetic
// between pin and release. The standard ring runs the packed
// microkernel; every other ring runs the row-wise multiply-add.
func MatMulTiled(pool *buffer.Pool, name string, a, b *array.Matrix, workers int, ring *scalarop.Semiring) (*array.Matrix, error) {
	kern := KernelMicro
	if !ring.IsStandard() {
		kern = KernelNaive
	}
	return matMulTiled(pool, name, a, b, workers, kern, ring)
}

// MatMulTiledKernel is the standard-ring MatMulTiled with an explicit
// choice of inner kernel. Both kernels run the identical
// pin/prefetch/flush schedule; the choice only selects the arithmetic
// between pin and release, which is what the gflops ablation measures.
func MatMulTiledKernel(pool *buffer.Pool, name string, a, b *array.Matrix, workers int, kern Kernel) (*array.Matrix, error) {
	return matMulTiled(pool, name, a, b, workers, kern, scalarop.Standard)
}

// matMulTiled runs the tiled schedule with the given inner kernel and
// ring.
func matMulTiled(pool *buffer.Pool, name string, a, b *array.Matrix, workers int, kern Kernel, ring *scalarop.Semiring) (*array.Matrix, error) {
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	atr, atc := a.TileDims()
	btr, btc := b.TileDims()
	if atr != atc || btr != btc || atr != btr {
		return nil, fmt.Errorf("linalg: MatMulTiled requires square tiles (got %dx%d and %dx%d)", atr, atc, btr, btc)
	}
	t, err := array.NewMatrix(pool, name, a.Rows(), b.Cols(), array.Options{Shape: array.SquareTiles, Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	agr, agc := a.GridDims()
	_, bgc := b.GridDims()

	w := workers
	if w < 1 {
		w = 1
	}
	// Split the frame budget across in-flight workers, three ways each.
	// When the task count (which depends on q) clamps w down, recompute
	// q from the smaller w so the remaining workers use the freed
	// budget: fewer, larger super-blocks mean fewer k-passes and less
	// I/O. The loop converges because w only ever shrinks.
	var q, superCols, tasks int
	for {
		q = int(math.Sqrt(float64(pool.Capacity()) / float64(3*w)))
		if q < 1 {
			q = 1
		}
		if inFlight := pool.Capacity() / (3 * q * q); w > inFlight && inFlight >= 1 {
			w = inFlight
		}
		superRows := (agr + q - 1) / q
		superCols = (bgc + q - 1) / q
		tasks = superRows * superCols
		if w <= tasks {
			break
		}
		w = tasks
	}
	if w <= 1 {
		// Sequential: use the full budget for one worker. This is the
		// configuration where the I/O scheduler hints pay off — the
		// prefetched super-blocks are consumed by the same goroutine
		// that announced them.
		q = int(math.Sqrt(float64(pool.Capacity()) / 3))
		if q < 1 {
			q = 1
		}
		var sc mulScratch
		for ti0 := 0; ti0 < agr; ti0 += q {
			for tj0 := 0; tj0 < bgc; tj0 += q {
				if err := multiplySuperBlock(t, a, b, ti0, tj0, q, agr, agc, bgc, true, kern, &sc, ring); err != nil {
					return nil, err
				}
			}
		}
		return t, pool.FlushAll()
	}

	// Parallel: workers pull output super-blocks from a shared queue.
	// Each worker owns one scratch set of packing buffers, reused across
	// every super-block it processes.
	scratches := make([]mulScratch, w)
	var next atomic.Int64
	var failed atomic.Bool
	err = runWorkers(w, func(j int) error {
		for !failed.Load() {
			task := int(next.Add(1)) - 1
			if task >= tasks {
				return nil
			}
			ti0 := (task / superCols) * q
			tj0 := (task % superCols) * q
			// Prefetch hints are disabled in parallel mode: with every
			// worker's three super-blocks pinned the budget has no slack,
			// and on oversubscribed CPUs one worker's claims evict
			// another's prefetched tiles before they are consumed.
			if err := multiplySuperBlock(t, a, b, ti0, tj0, q, agr, agc, bgc, false, kern, &scratches[j], ring); err != nil {
				failed.Store(true)
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, pool.FlushAll()
}

// runWorkers spawns w goroutines running fn(j) and returns the first
// error any of them produced.
func runWorkers(w int, fn func(j int) error) error {
	errs := make([]error, w)
	var wg sync.WaitGroup
	for j := 0; j < w; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = fn(j)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// multiplySuperBlock computes the q×q-tile output super-block anchored at
// (ti0, tj0): it pins the result super-block once and accumulates across
// the k dimension, pinning one a and one b super-block at a time. With
// the I/O scheduler enabled, the next k-step's input super-blocks are
// announced the moment the current step's tiles are released: the
// prefetch claims recycle exactly those just-released frames (the
// schedule and its budget are unchanged) and the next pins collapse onto
// two sorted vectored reads instead of issuing 2q² single-tile requests
// interleaved with write-backs.
func multiplySuperBlock(t, a, b *array.Matrix, ti0, tj0, q, agr, agc, bgc int, prefetch bool, kern Kernel, sc *mulScratch, ring *scalarop.Semiring) error {
	ti1 := min(ti0+q, agr)
	tj1 := min(tj0+q, bgc)
	if prefetch {
		// Announce the first k-step before pinning the (read-free)
		// result tiles, so its inputs stream in as vectored batches too.
		k1 := min(q, agc)
		a.PrefetchTiles(ti0, ti1, 0, k1)
		b.PrefetchTiles(0, k1, tj0, tj1)
	}
	ctiles, err := pinBlock(t, ti0, ti1, tj0, tj1, true)
	if err != nil {
		return err
	}
	defer releaseBlock(ctiles)
	// Element extents of this super-block. Tiles are square (side×side);
	// only the last tile row/column of the grid is clipped, so the
	// super-block's elements are contiguous ranges.
	side, _ := t.TileDims()
	var M, N, Np int
	if kern == KernelMicro {
		M = int(min(int64(ti1)*int64(side), t.Rows()) - int64(ti0)*int64(side))
		N = int(min(int64(tj1)*int64(side), t.Cols()) - int64(tj0)*int64(side))
		Np = roundUp(N, nr)
		// One C panel accumulates across every k-step, then unpacks once.
		// Fresh C tiles start zeroed, so panel accumulation performs the
		// same additions in the same order as accumulating in the tiles.
		sc.cpack = grow(sc.cpack, roundUp(M, mr)*Np)
		clear(sc.cpack)
	}
	for tk0 := 0; tk0 < agc; tk0 += q {
		tk1 := min(tk0+q, agc)
		atiles, err := pinBlock(a, ti0, ti1, tk0, tk1, false)
		if err != nil {
			return err
		}
		btiles, err := pinBlock(b, tk0, tk1, tj0, tj1, false)
		if err != nil {
			releaseBlock(atiles)
			return err
		}
		if kern == KernelMicro {
			K := int(min(int64(tk1)*int64(side), a.Cols()) - int64(tk0)*int64(side))
			multiplyPanels(sc, atiles, btiles, ti0, ti1, tk0, tk1, tj0, tj1, side, M, N, K)
		} else {
			// Multiply the pinned super-blocks tile by tile: the
			// standard ring through the per-element accessors (the
			// baseline the gflops ablation measures), any other ring
			// through its row-wise multiply-add.
			for ti := ti0; ti < ti1; ti++ {
				for tj := tj0; tj < tj1; tj++ {
					ct := ctiles[(ti-ti0)*(tj1-tj0)+(tj-tj0)]
					for tk := tk0; tk < tk1; tk++ {
						at := atiles[(ti-ti0)*(tk1-tk0)+(tk-tk0)]
						bt := btiles[(tk-tk0)*(tj1-tj0)+(tj-tj0)]
						if ring.IsStandard() {
							multiplyTilePair(at, bt, ct)
						} else {
							multiplyTilePairRing(at, bt, ct, ring)
						}
					}
				}
			}
		}
		releaseBlock(atiles)
		releaseBlock(btiles)
		if prefetch && tk1 < agc {
			nk1 := min(tk1+q, agc)
			a.PrefetchTiles(ti0, ti1, tk1, nk1)
			b.PrefetchTiles(tk1, nk1, tj0, tj1)
		}
	}
	if kern == KernelMicro {
		unpackC(sc.cpack, ctiles, ti0, ti1, tj0, tj1, side, Np)
	}
	for _, ct := range ctiles {
		ct.MarkDirty()
	}
	return nil
}

// pinBlock pins the tile rectangle [ti0,ti1)×[tj0,tj1) of m, row-major.
func pinBlock(m *array.Matrix, ti0, ti1, tj0, tj1 int, fresh bool) ([]*array.Tile, error) {
	tiles := make([]*array.Tile, 0, (ti1-ti0)*(tj1-tj0))
	for ti := ti0; ti < ti1; ti++ {
		for tj := tj0; tj < tj1; tj++ {
			var t *array.Tile
			var err error
			if fresh {
				t, err = m.PinTileNew(ti, tj)
			} else {
				t, err = m.PinTile(ti, tj)
			}
			if err != nil {
				releaseBlock(tiles)
				return nil, err
			}
			tiles = append(tiles, t)
		}
	}
	return tiles, nil
}

func releaseBlock(tiles []*array.Tile) {
	for _, t := range tiles {
		t.Release()
	}
}

// multiplyTilePair accumulates at×bt into ct, respecting edge clipping.
func multiplyTilePair(at, bt, ct *array.Tile) {
	for i := ct.RowLo; i < ct.RowHi; i++ {
		for k := at.ColLo; k < at.ColHi; k++ {
			av := at.At(i, k)
			if av == 0 {
				continue
			}
			for j := ct.ColLo; j < ct.ColHi; j++ {
				ct.Set(i, j, ct.At(i, j)+av*bt.At(k, j))
			}
		}
	}
}

// Transpose produces the transpose of a with the same tiling options.
func Transpose(pool *buffer.Pool, name string, a *array.Matrix) (*array.Matrix, error) {
	return TransposeWorkers(pool, name, a, 1)
}

// TransposeWorkers is Transpose with the source tile columns partitioned
// across up to workers goroutines. Every source element lives in exactly
// one tile, so workers handling disjoint column stripes write disjoint
// output elements; when two stripes share an output tile, the writes
// land on different offsets of the (pinned, never-moving) frame and the
// dirty write-back on eviction keeps partial updates ordered. Each
// worker holds at most two pinned frames (one source tile, one
// overlapping output tile), so the in-flight worker count is capped at
// capacity/2. workers <= 1 runs the exact sequential loop.
//
// Instead of one Matrix.Set per element (a pool request, a grid lookup,
// and a dirty mark each), every source tile is scattered through raw
// row slices: each overlapping output tile is pinned once, filled with
// strided copies out of the source tile's rows, and dirty-marked once.
func TransposeWorkers(pool *buffer.Pool, name string, a *array.Matrix, workers int) (*array.Matrix, error) {
	t, err := array.NewMatrix(pool, name, a.Cols(), a.Rows(), array.Options{Shape: array.SquareTiles, Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	gr, gc := a.GridDims()
	dside, _ := t.TileDims()
	transposeCols := func(tjLo, tjHi int) error {
		var srows [][]float64
		for ti := 0; ti < gr; ti++ {
			for tj := tjLo; tj < tjHi; tj++ {
				src, err := a.PinTile(ti, tj)
				if err != nil {
					return err
				}
				srows = srows[:0]
				for i := src.RowLo; i < src.RowHi; i++ {
					srows = append(srows, src.Row(i))
				}
				// The source tile lands in the output at rows
				// [ColLo,ColHi) × cols [RowLo,RowHi); the source may be
				// row/col/square-tiled, so that region can overlap
				// several square output tiles.
				for dti := int(src.ColLo) / dside; dti <= int(src.ColHi-1)/dside; dti++ {
					for dtj := int(src.RowLo) / dside; dtj <= int(src.RowHi-1)/dside; dtj++ {
						dst, err := t.PinTile(dti, dtj)
						if err != nil {
							src.Release()
							return err
						}
						jLo, jHi := max(dst.RowLo, src.ColLo), min(dst.RowHi, src.ColHi)
						iLo, iHi := max(dst.ColLo, src.RowLo), min(dst.ColHi, src.RowHi)
						for j := jLo; j < jHi; j++ {
							drow := dst.Row(j)
							for i := iLo; i < iHi; i++ {
								drow[i-dst.ColLo] = srows[i-src.RowLo][j-src.ColLo]
							}
						}
						dst.MarkDirty()
						dst.Release()
					}
				}
				src.Release()
			}
		}
		return nil
	}
	w := workers
	if w > gc {
		w = gc
	}
	if inFlight := pool.Capacity() / 2; w > inFlight && inFlight >= 1 {
		w = inFlight
	}
	if w <= 1 {
		if err := transposeCols(0, gc); err != nil {
			return nil, err
		}
		return t, pool.FlushAll()
	}
	if err := runWorkers(w, func(j int) error {
		return transposeCols(gc*j/w, gc*(j+1)/w)
	}); err != nil {
		return nil, err
	}
	return t, pool.FlushAll()
}
