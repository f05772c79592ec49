// Package array implements RIOT's tiled array store, the storage design
// the paper derives from ChunkyStore (§5): array indexes are never stored
// explicitly, arrays are partitioned into (hyper)rectangular tiles with a
// controllable aspect ratio, each tile occupies one disk block, and the
// order of tiles on disk (the linearization) is itself an option — row
// order, column order, or a space-filling curve for arrays whose access
// pattern is unknown in advance.
//
// Matrices here are the substrate for the out-of-core kernels in
// internal/linalg and for the RIOT engine's executor. All I/O goes
// through a buffer.Pool, so an algorithm's memory budget is enforced.
package array

import (
	"fmt"

	"riot/internal/buffer"
	"riot/internal/disk"
)

// TileShape selects the aspect ratio of matrix tiles.
type TileShape int

const (
	// RowTiles are 1×B runs: the matrix is effectively stored row-major.
	RowTiles TileShape = iota
	// ColTiles are B×1 runs: column-major storage, R's default layout.
	ColTiles
	// SquareTiles are √B×√B blocks, the shape that makes the paper's
	// Θ(n³/(B√M)) matrix-multiply schedule achievable.
	SquareTiles
)

// String names the tile shape for diagnostics and bench tables.
func (t TileShape) String() string {
	switch t {
	case RowTiles:
		return "row"
	case ColTiles:
		return "col"
	case SquareTiles:
		return "square"
	}
	return fmt.Sprintf("TileShape(%d)", int(t))
}

// Linearization selects the on-disk ordering of tiles.
type Linearization int

const (
	// RowOrder stores tiles in tile-row-major order.
	RowOrder Linearization = iota
	// ColOrder stores tiles in tile-column-major order.
	ColOrder
	// ZOrder stores tiles along a Morton (Z) curve.
	ZOrder
	// HilbertOrder stores tiles along a Hilbert curve.
	HilbertOrder
)

// String names the linearization for diagnostics and bench tables.
func (l Linearization) String() string {
	switch l {
	case RowOrder:
		return "roworder"
	case ColOrder:
		return "colorder"
	case ZOrder:
		return "zorder"
	case HilbertOrder:
		return "hilbert"
	}
	return fmt.Sprintf("Linearization(%d)", int(l))
}

// Matrix is a dense rows×cols float64 matrix stored as tiles on a
// simulated disk, one tile per block.
type Matrix struct {
	pool  *buffer.Pool
	name  string
	rows  int64
	cols  int64
	tileR int // tile height in elements
	tileC int // tile width in elements
	gridR int // tiles per column of the grid
	gridC int // tiles per row of the grid
	lin   Linearization
	base  disk.BlockID
	order []int32 // row-major tile index -> block offset
}

// Options configures matrix creation.
type Options struct {
	Shape TileShape
	Lin   Linearization
}

// NewMatrix allocates a rows×cols matrix from pool's device under the
// given owner name. The tile dimensions are derived from the device
// block size and opts.Shape.
// Degenerate 0×n / n×0 / 0×0 matrices are legal: they occupy no blocks,
// and every tile loop over their (empty) grid is vacuous — the shape
// algebra of expressions over empty inputs still has to hold.
func NewMatrix(pool *buffer.Pool, name string, rows, cols int64, opts Options) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("array: invalid dimensions %d×%d", rows, cols)
	}
	b := pool.Device().BlockElems()
	tr, tc, err := TileDimsFor(b, opts.Shape)
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		pool:  pool,
		name:  name,
		rows:  rows,
		cols:  cols,
		tileR: tr,
		tileC: tc,
		gridR: int((rows + int64(tr) - 1) / int64(tr)),
		gridC: int((cols + int64(tc) - 1) / int64(tc)),
		lin:   opts.Lin,
	}
	nt := m.gridR * m.gridC
	m.base = pool.Device().Alloc(name, nt)
	m.order = buildOrder(m.gridR, m.gridC, opts.Lin)
	return m, nil
}

// buildOrder computes the row-major-tile-index -> block-offset permutation
// for the requested linearization. Non-power-of-two grids are handled by
// ranking curve keys, so the block file stays dense.
func buildOrder(gr, gc int, lin Linearization) []int32 {
	n := gr * gc
	order := make([]int32, n)
	switch lin {
	case RowOrder:
		for i := range order {
			order[i] = int32(i)
		}
	case ColOrder:
		k := int32(0)
		for tj := 0; tj < gc; tj++ {
			for ti := 0; ti < gr; ti++ {
				order[ti*gc+tj] = k
				k++
			}
		}
	case ZOrder, HilbertOrder:
		keys := make([]uint64, n)
		kbits := log2ceil(uint32(max(gr, gc)))
		for ti := 0; ti < gr; ti++ {
			for tj := 0; tj < gc; tj++ {
				if lin == ZOrder {
					keys[ti*gc+tj] = mortonEncode(uint32(tj), uint32(ti))
				} else {
					keys[ti*gc+tj] = hilbertEncode(max(kbits, 1), uint32(tj), uint32(ti))
				}
			}
		}
		order = rankByKey(keys)
	}
	return order
}

// rankByKey returns, for each position, the rank of its key (keys are
// distinct by construction of the curves).
func rankByKey(keys []uint64) []int32 {
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	// Sort positions by key using a simple in-place heapsort to avoid
	// allocating closures in hot paths; n is the tile count, small.
	sortByKey(idx, keys)
	order := make([]int32, len(keys))
	for rank, pos := range idx {
		order[pos] = int32(rank)
	}
	return order
}

func sortByKey(idx []int32, keys []uint64) {
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(idx, keys, i, n)
	}
	for i := n - 1; i > 0; i-- {
		idx[0], idx[i] = idx[i], idx[0]
		siftDown(idx, keys, 0, i)
	}
}

func siftDown(idx []int32, keys []uint64, lo, hi int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			return
		}
		if child+1 < hi && keys[idx[child]] < keys[idx[child+1]] {
			child++
		}
		if keys[idx[root]] >= keys[idx[child]] {
			return
		}
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}

// Rows returns the row count.
func (m *Matrix) Rows() int64 { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int64 { return m.cols }

// Name returns the owner name used for disk accounting.
func (m *Matrix) Name() string { return m.name }

// Pool returns the buffer pool the matrix is accessed through.
func (m *Matrix) Pool() *buffer.Pool { return m.pool }

// TileDims returns the tile height and width in elements.
func (m *Matrix) TileDims() (tr, tc int) { return m.tileR, m.tileC }

// GridDims returns the tile-grid dimensions.
func (m *Matrix) GridDims() (gr, gc int) { return m.gridR, m.gridC }

// Lin returns the matrix's linearization.
func (m *Matrix) Lin() Linearization { return m.lin }

// Shape returns the tile shape, recovered from the tile dimensions.
func (m *Matrix) Shape() TileShape {
	switch {
	case m.tileR == 1 && m.tileC != 1:
		return RowTiles
	case m.tileC == 1 && m.tileR != 1:
		return ColTiles
	}
	return SquareTiles
}

// BaseBlock returns the first block of the matrix's extent; the matrix
// occupies Blocks() contiguous blocks from it, in linearization order.
// Two matrices with equal dimensions, tile shape, and linearization have
// identical geometry, so a block-level copy between their extents is a
// value-level copy — the catalog's publish and checkpoint paths rely on
// this.
func (m *Matrix) BaseBlock() disk.BlockID { return m.base }

// Blocks returns the total number of blocks the matrix occupies.
func (m *Matrix) Blocks() int { return m.gridR * m.gridC }

// tileBlock returns the disk block holding tile (ti, tj).
func (m *Matrix) tileBlock(ti, tj int) disk.BlockID {
	return m.base + disk.BlockID(m.order[ti*m.gridC+tj])
}

// Tile is a pinned tile plus the geometry needed to address elements.
type Tile struct {
	frame *buffer.Frame
	m     *Matrix
	ti    int
	tj    int
	// RowLo/ColLo are the global coordinates of the tile's top-left
	// element; RowHi/ColHi are exclusive upper bounds (clipped to the
	// matrix edge).
	RowLo, RowHi int64
	ColLo, ColHi int64
}

// PinTile pins tile (ti, tj) for reading and returns it.
func (m *Matrix) PinTile(ti, tj int) (*Tile, error) {
	return m.pin(ti, tj, false)
}

// PinTileNew pins tile (ti, tj) assuming it will be fully overwritten:
// no read I/O is charged.
func (m *Matrix) PinTileNew(ti, tj int) (*Tile, error) {
	return m.pin(ti, tj, true)
}

func (m *Matrix) pin(ti, tj int, fresh bool) (*Tile, error) {
	if ti < 0 || ti >= m.gridR || tj < 0 || tj >= m.gridC {
		return nil, fmt.Errorf("array: tile (%d,%d) outside %d×%d grid of %q", ti, tj, m.gridR, m.gridC, m.name)
	}
	var f *buffer.Frame
	var err error
	if fresh {
		f, err = m.pool.PinNew(m.tileBlock(ti, tj))
	} else {
		f, err = m.pool.Pin(m.tileBlock(ti, tj))
	}
	if err != nil {
		return nil, err
	}
	t := &Tile{
		frame: f, m: m, ti: ti, tj: tj,
		RowLo: int64(ti) * int64(m.tileR),
		ColLo: int64(tj) * int64(m.tileC),
	}
	t.RowHi = min(t.RowLo+int64(m.tileR), m.rows)
	t.ColHi = min(t.ColLo+int64(m.tileC), m.cols)
	return t, nil
}

// Release unpins the tile.
func (t *Tile) Release() { t.m.pool.Unpin(t.frame) }

// MarkDirty flags the tile for write-back.
func (t *Tile) MarkDirty() { t.frame.MarkDirty() }

// At returns the element at global coordinates (i, j), which must lie
// inside the tile.
func (t *Tile) At(i, j int64) float64 {
	return t.frame.Data[(i-t.RowLo)*int64(t.m.tileC)+(j-t.ColLo)]
}

// Set stores v at global coordinates (i, j) and marks the tile dirty.
func (t *Tile) Set(i, j int64, v float64) {
	t.frame.Data[(i-t.RowLo)*int64(t.m.tileC)+(j-t.ColLo)] = v
	t.frame.MarkDirty()
}

// Data exposes the raw tile payload in tile-row-major order.
func (t *Tile) Data() []float64 { return t.frame.Data }

// Pitch returns the row stride of the raw tile payload in elements —
// the tile's full (unclipped) width. Rows of an edge-clipped tile are
// shorter than the pitch; Row returns only the valid prefix.
func (t *Tile) Pitch() int { return t.m.tileC }

// Row returns the raw payload slice of the tile's row at global row
// index i (which must lie inside the tile), spanning the tile's clipped
// column range [ColLo, ColHi). Mutating it writes the tile; callers
// that do must MarkDirty once per tile instead of paying Set's
// per-element dirty marking.
func (t *Tile) Row(i int64) []float64 {
	off := (i - t.RowLo) * int64(t.m.tileC)
	return t.frame.Data[off : off+(t.ColHi-t.ColLo)]
}

// PrefetchTiles hints to the pool's I/O scheduler that the tile
// rectangle [ti0,ti1)×[tj0,tj1) will be read soon. The tiles' blocks are
// loaded asynchronously; the scheduler sorts them by BlockID, so
// whatever runs the linearization makes contiguous are read with one
// seek each. A no-op when the scheduler is disabled; the rectangle is
// clipped to the grid.
func (m *Matrix) PrefetchTiles(ti0, ti1, tj0, tj1 int) {
	if !m.pool.ReadaheadEnabled() {
		return
	}
	ti0, tj0 = max(ti0, 0), max(tj0, 0)
	ti1, tj1 = min(ti1, m.gridR), min(tj1, m.gridC)
	if ti0 >= ti1 || tj0 >= tj1 {
		return
	}
	ids := make([]disk.BlockID, 0, (ti1-ti0)*(tj1-tj0))
	for ti := ti0; ti < ti1; ti++ {
		for tj := tj0; tj < tj1; tj++ {
			ids = append(ids, m.tileBlock(ti, tj))
		}
	}
	m.pool.Prefetch(ids)
}

// At reads a single element through the buffer pool.
func (m *Matrix) At(i, j int64) (float64, error) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return 0, fmt.Errorf("array: index (%d,%d) outside %d×%d matrix %q", i, j, m.rows, m.cols, m.name)
	}
	t, err := m.PinTile(int(i)/m.tileR, int(j)/m.tileC)
	if err != nil {
		return 0, err
	}
	v := t.At(i, j)
	t.Release()
	return v, nil
}

// ReadRect copies the rectangle rows [r0, r1) × cols [c0, c1) into dst,
// row-major with row stride ld. Each covered tile is pinned once and
// copied a row slice at a time.
func (m *Matrix) ReadRect(r0, r1, c0, c1 int64, dst []float64, ld int64) error {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		return fmt.Errorf("array: rectangle [%d,%d)×[%d,%d) outside %d×%d matrix %q", r0, r1, c0, c1, m.rows, m.cols, m.name)
	}
	if r0 == r1 || c0 == c1 {
		return nil
	}
	tr, tc := int64(m.tileR), int64(m.tileC)
	for ti := r0 / tr; ti*tr < r1; ti++ {
		for tj := c0 / tc; tj*tc < c1; tj++ {
			t, err := m.PinTile(int(ti), int(tj))
			if err != nil {
				return err
			}
			lo, hi := max(t.RowLo, r0), min(t.RowHi, r1)
			clo, chi := max(t.ColLo, c0), min(t.ColHi, c1)
			for i := lo; i < hi; i++ {
				copy(dst[(i-r0)*ld+clo-c0:], t.Row(i)[clo-t.ColLo:chi-t.ColLo])
			}
			t.Release()
		}
	}
	return nil
}

// Set writes a single element through the buffer pool.
func (m *Matrix) Set(i, j int64, v float64) error {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return fmt.Errorf("array: index (%d,%d) outside %d×%d matrix %q", i, j, m.rows, m.cols, m.name)
	}
	t, err := m.PinTile(int(i)/m.tileR, int(j)/m.tileC)
	if err != nil {
		return err
	}
	t.Set(i, j, v)
	t.Release()
	return nil
}

// Fill sets every element to f(i, j), streaming tile by tile in disk
// order (each tile is written exactly once, with no read I/O).
func (m *Matrix) Fill(f func(i, j int64) float64) error {
	for ti := 0; ti < m.gridR; ti++ {
		for tj := 0; tj < m.gridC; tj++ {
			t, err := m.PinTileNew(ti, tj)
			if err != nil {
				return err
			}
			for i := t.RowLo; i < t.RowHi; i++ {
				for j := t.ColLo; j < t.ColHi; j++ {
					t.Set(i, j, f(i, j))
				}
			}
			t.Release()
		}
	}
	return m.pool.FlushAll()
}

// Free drops the matrix's resident tiles and releases its disk extent.
func (m *Matrix) Free() {
	for ti := 0; ti < m.gridR; ti++ {
		for tj := 0; tj < m.gridC; tj++ {
			m.pool.Invalidate(m.tileBlock(ti, tj))
		}
	}
	m.pool.Device().Free(m.name)
}
