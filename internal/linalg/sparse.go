package linalg

import (
	"fmt"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/scalarop"
	"riot/internal/sparse"
)

// Sparse kernels. There is one multiply per pair of array kinds, and
// each takes the semi-ring as a parameter. All three share one schedule
// — loop output tiles, accumulate across the shared dimension — but the
// tile directory of a sparse operand lets them skip k-steps outright: an
// all-zero tile contributes nothing, costs no block read, and (for the
// sparse×sparse kernel) produces no output block either. Block reads
// therefore scale with the number of NON-EMPTY tiles rather than with
// the grid, which is the whole point of the sparse kind: a banded
// adjacency matrix at 1% density multiplies with a few percent of the
// dense kernel's I/O. Under any ring the skip is the annihilation law in
// I/O form: an absent element denotes the ring's Zero.
//
// A kernel skips exactly the elements a sparse operand does not store
// (a zero in a decoded sparse tile is absent) and hands every other
// pair to the ring's multiply-add, Semiring.MulAdd or its row form
// MulAddRow. For the standard ring that is plain IEEE y + a·b; for the
// others it is the storage-domain update, where float64 0 in the output
// is absent. The storage cannot represent a STORED element equal to
// float64 0 (the builder drops exact zeros), so a computed ring value of
// exactly 0 collapses to absent/Zero — harmless for the standard and
// boolean rings where 0 IS the Zero, and avoided for the tropical rings
// by keeping the ⊗-identity diagonal implicit until the final densify
// (off-diagonal exact-0 values only arise from mixed-sign edge weights).
//
// The kernels are sequential and accumulate in row-major, ascending-k
// order, so their results and I/O counts are deterministic.

// checkSquareAligned verifies the operands use equal square tiles (the
// same precondition MatMulTiled imposes) and conformable shapes.
func checkSquareAligned(aRows, aCols, bRows, bCols int64, atr, atc, btr, btc int) error {
	if aCols != bRows {
		return fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", aRows, aCols, bRows, bCols)
	}
	if atr != atc || btr != btc || atr != btr {
		return fmt.Errorf("linalg: sparse matmul requires matching square tiles (got %dx%d and %dx%d)", atr, atc, btr, btc)
	}
	return nil
}

// MatMulSparseDense multiplies a sparse l×m matrix by a dense m×n matrix
// over ring into a fresh dense matrix. For each output tile it pins the
// result and one b tile while iterating the nonzeros of the matching a
// tile; k-steps whose a tile is empty are skipped before any block is
// touched. Each nonzero a[i][k] updates output row i from row k of b in
// one MulAddRow.
func MatMulSparseDense(pool *buffer.Pool, name string, a *sparse.Matrix, b *array.Matrix, ring *scalarop.Semiring) (*array.Matrix, error) {
	atr, atc := a.TileDims()
	btr, btc := b.TileDims()
	if err := checkSquareAligned(a.Rows(), a.Cols(), b.Rows(), b.Cols(), atr, atc, btr, btc); err != nil {
		return nil, err
	}
	t, err := array.NewMatrix(pool, name, a.Rows(), b.Cols(), array.Options{Shape: array.SquareTiles, Lin: b.Lin()})
	if err != nil {
		return nil, err
	}
	agr, agc := a.GridDims()
	_, bgc := b.GridDims()
	for ti := 0; ti < agr; ti++ {
		for tj := 0; tj < bgc; tj++ {
			ct, err := t.PinTileNew(ti, tj)
			if err != nil {
				return nil, err
			}
			for tk := 0; tk < agc; tk++ {
				if a.TileEmpty(ti, tk) {
					continue
				}
				bt, err := b.PinTile(tk, tj)
				if err != nil {
					ct.Release()
					return nil, err
				}
				rowLo, _, colLo, _ := a.TileBounds(ti, tk)
				err = a.IterTile(ti, tk, func(r, c int, v float64) error {
					ring.MulAddRow(ct.Row(rowLo+int64(r)), v, bt.Row(colLo+int64(c)))
					return nil
				})
				bt.Release()
				if err != nil {
					ct.Release()
					return nil, err
				}
			}
			ct.MarkDirty()
			ct.Release()
		}
	}
	return t, pool.FlushAll()
}

// MatMulDenseSparse multiplies a dense l×m matrix by a sparse m×n matrix
// over ring into a fresh dense matrix, skipping k-steps whose b tile is
// empty. Each nonzero b[k][j] updates output column j from column k of
// a, one MulAdd per row.
func MatMulDenseSparse(pool *buffer.Pool, name string, a *array.Matrix, b *sparse.Matrix, ring *scalarop.Semiring) (*array.Matrix, error) {
	atr, atc := a.TileDims()
	btr, btc := b.TileDims()
	if err := checkSquareAligned(a.Rows(), a.Cols(), b.Rows(), b.Cols(), atr, atc, btr, btc); err != nil {
		return nil, err
	}
	t, err := array.NewMatrix(pool, name, a.Rows(), b.Cols(), array.Options{Shape: array.SquareTiles, Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	agr, agc := a.GridDims()
	_, bgc := b.GridDims()
	for ti := 0; ti < agr; ti++ {
		for tj := 0; tj < bgc; tj++ {
			ct, err := t.PinTileNew(ti, tj)
			if err != nil {
				return nil, err
			}
			for tk := 0; tk < agc; tk++ {
				if b.TileEmpty(tk, tj) {
					continue
				}
				at, err := a.PinTile(ti, tk)
				if err != nil {
					ct.Release()
					return nil, err
				}
				err = b.IterTile(tk, tj, func(r, c int, v float64) error {
					for i := ct.RowLo; i < ct.RowHi; i++ {
						crow := ct.Row(i)
						crow[c] = ring.MulAdd(crow[c], at.Row(i)[r], v)
					}
					return nil
				})
				at.Release()
				if err != nil {
					ct.Release()
					return nil, err
				}
			}
			ct.MarkDirty()
			ct.Release()
		}
	}
	return t, pool.FlushAll()
}

// MatMulSparseSparse multiplies two sparse matrices over ring into a
// fresh sparse matrix. A k-step runs only when BOTH operand tiles are
// non-empty (tile-level intersection), and output tiles that stay
// all-zero are never written — path-length style products of banded or
// clustered adjacency matrices read and write a small multiple of the
// band's tiles. Each output tile accumulates in a block-sized host
// buffer, so at most one frame is pinned at a time.
func MatMulSparseSparse(pool *buffer.Pool, name string, a, b *sparse.Matrix, ring *scalarop.Semiring) (*sparse.Matrix, error) {
	atr, atc := a.TileDims()
	btr, btc := b.TileDims()
	if err := checkSquareAligned(a.Rows(), a.Cols(), b.Rows(), b.Cols(), atr, atc, btr, btc); err != nil {
		return nil, err
	}
	bld, err := sparse.NewBuilder(pool, name, a.Rows(), b.Cols(), array.Options{Shape: array.SquareTiles, Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	agr, agc := a.GridDims()
	_, bgc := b.GridDims()
	side := atr
	scratch := make([]float64, side*side) // output tile accumulator, 0 = absent
	bscr := make([]float64, side*side)    // decoded b tile, 0 = absent
	for ti := 0; ti < agr; ti++ {
		for tj := 0; tj < bgc; tj++ {
			clear(scratch)
			touched := false
			for tk := 0; tk < agc; tk++ {
				if a.TileEmpty(ti, tk) || b.TileEmpty(tk, tj) {
					continue
				}
				touched = true
				if err := b.ReadTile(tk, tj, bscr); err != nil {
					bld.Abandon()
					return nil, err
				}
				err := a.IterTile(ti, tk, func(r, c int, v float64) error {
					out := scratch[r*side : (r+1)*side]
					for jj, bv := range bscr[c*side : (c+1)*side] {
						if bv != 0 {
							out[jj] = ring.MulAdd(out[jj], v, bv)
						}
					}
					return nil
				})
				if err != nil {
					bld.Abandon()
					return nil, err
				}
			}
			if !touched {
				continue // provably all-zero: no SetTile, no block
			}
			if err := bld.SetTile(ti, tj, scratch); err != nil {
				bld.Abandon()
				return nil, err
			}
		}
	}
	return bld.Finish()
}

// AddSparseRing ⊕-merges two aligned sparse matrices tile by tile: an
// element absent from one side takes the other's value (x ⊕ Zero = x),
// present in both sides ⊕-combines. Output tiles empty on both sides
// cost no I/O and produce no block — the union of the operands' tile
// directories bounds the work.
func AddSparseRing(pool *buffer.Pool, name string, a, b *sparse.Matrix, ring *scalarop.Semiring) (*sparse.Matrix, error) {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return nil, fmt.Errorf("linalg: shape mismatch %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	atr, atc := a.TileDims()
	btr, btc := b.TileDims()
	if atr != btr || atc != btc {
		return nil, fmt.Errorf("linalg: tile mismatch %dx%d vs %dx%d", atr, atc, btr, btc)
	}
	bld, err := sparse.NewBuilder(pool, name, a.Rows(), a.Cols(), array.Options{Shape: array.SquareTiles, Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	agr, agc := a.GridDims()
	out := make([]float64, atr*atc)
	bscr := make([]float64, atr*atc)
	for ti := 0; ti < agr; ti++ {
		for tj := 0; tj < agc; tj++ {
			ae, be := a.TileEmpty(ti, tj), b.TileEmpty(ti, tj)
			if ae && be {
				continue
			}
			for i := range out {
				out[i] = 0
			}
			if !ae {
				if err := a.ReadTile(ti, tj, out); err != nil {
					bld.Abandon()
					return nil, err
				}
			}
			if !be {
				if err := b.ReadTile(ti, tj, bscr); err != nil {
					bld.Abandon()
					return nil, err
				}
				for i, bv := range bscr {
					if bv == 0 {
						continue
					}
					if out[i] == 0 {
						out[i] = bv
					} else {
						out[i] = ring.Add(out[i], bv)
					}
				}
			}
			if err := bld.SetTile(ti, tj, out); err != nil {
				bld.Abandon()
				return nil, err
			}
		}
	}
	return bld.Finish()
}

// DensifyRing materializes a sparse matrix as dense under the ring's
// storage convention: absent elements become ring.Zero. With oneDiag
// set it also ⊕-merges the ring's One onto the diagonal — the final
// step of the sparse closure, where the implicit "every vertex reaches
// itself" diagonal becomes explicit.
func DensifyRing(pool *buffer.Pool, name string, a *sparse.Matrix, ring *scalarop.Semiring, oneDiag bool) (*array.Matrix, error) {
	t, err := array.NewMatrix(pool, name, a.Rows(), a.Cols(), array.Options{Shape: array.SquareTiles, Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	agr, agc := a.GridDims()
	for ti := 0; ti < agr; ti++ {
		for tj := 0; tj < agc; tj++ {
			ct, err := t.PinTileNew(ti, tj)
			if err != nil {
				return nil, err
			}
			if ring.Zero != 0 {
				fillTilesZero([]*array.Tile{ct}, ring)
			}
			if !a.TileEmpty(ti, tj) {
				rowLo, _, colLo, _ := a.TileBounds(ti, tj)
				err = a.IterTile(ti, tj, func(r, c int, v float64) error {
					ct.Set(rowLo+int64(r), colLo+int64(c), v)
					return nil
				})
				if err != nil {
					ct.Release()
					return nil, err
				}
			}
			if oneDiag {
				lo := max(ct.RowLo, ct.ColLo)
				hi := min(ct.RowHi, ct.ColHi)
				for d := lo; d < hi; d++ {
					ct.Set(d, d, ring.Add(ct.At(d, d), ring.One))
				}
			}
			ct.MarkDirty()
			ct.Release()
		}
	}
	return t, pool.FlushAll()
}
