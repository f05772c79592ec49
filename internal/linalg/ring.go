package linalg

import (
	"fmt"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/scalarop"
)

// Ring-generic dense kernels. The tiled schedule (super-block sizing,
// pin/prefetch/flush order, worker clamping) lives in MatMulTiled in
// linalg.go — a semi-ring changes which arithmetic runs between pin and
// release, never which blocks move. The packed 4×4 microkernel stays a
// standard-ring fast path: its accumulation order is part of the
// bit-identical contract and has no analogue for min/max folds, so
// non-standard rings take the row-wise tile-pair loop.
//
// Storage convention, shared with the sparse kernels: under a
// non-standard ring a stored float64 0 denotes the ring's Zero, for
// dense tiles exactly as for absent sparse elements. That makes the
// array kind a pure storage property — a dense and a sparse operand
// holding the same values multiply to the same result — and it is the
// only convention a kind-free backend (where sparse() is the identity)
// can agree with. The caveat: a COMPUTED ring value equal to exact 0
// collapses to Zero when stored. For the standard and boolean rings 0
// is the Zero, so nothing changes; for the tropical rings it means
// mixed-sign weights can lose an exact-0 path sum, and the closure
// kernels keep their ⊗-identity diagonal (minplus One = 0) implicit
// until the final verbatim densify for exactly this reason.

// MatMulNaiveRing is the triple-loop fallback over an arbitrary
// semi-ring, for operands whose tiling the tiled schedule rejects.
func MatMulNaiveRing(pool *buffer.Pool, name string, a, b *array.Matrix, opts array.Options, ring *scalarop.Semiring) (*array.Matrix, error) {
	if ring.IsStandard() {
		return MatMulNaive(pool, name, a, b, opts)
	}
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	t, err := array.NewMatrix(pool, name, a.Rows(), b.Cols(), opts)
	if err != nil {
		return nil, err
	}
	for j := int64(0); j < b.Cols(); j++ {
		for i := int64(0); i < a.Rows(); i++ {
			acc := ring.Zero
			for k := int64(0); k < a.Cols(); k++ {
				av, err := a.At(i, k)
				if err != nil {
					return nil, err
				}
				if av == 0 || av == ring.Zero {
					continue
				}
				bv, err := b.At(k, j)
				if err != nil {
					return nil, err
				}
				if bv == 0 || bv == ring.Zero {
					continue
				}
				acc = ring.Add(acc, ring.Mul(av, bv))
			}
			if acc == ring.Zero {
				acc = 0 // store Zero as absent
			}
			if err := t.Set(i, j, acc); err != nil {
				return nil, err
			}
		}
	}
	return t, pool.FlushAll()
}

// multiplyTilePairRing accumulates at⊗bt into ct row by row with the
// ring's multiply-add, in the storage domain: an element reading 0 (or
// the ring's Zero itself) is absent and annihilates, and fresh output
// tiles arrive zeroed = all-absent, so no identity seeding is needed.
func multiplyTilePairRing(at, bt, ct *array.Tile, ring *scalarop.Semiring) {
	for i := ct.RowLo; i < ct.RowHi; i++ {
		crow := ct.Row(i)
		for kk, av := range at.Row(i) {
			ring.MulAddRow(crow, av, bt.Row(at.ColLo+int64(kk)))
		}
	}
}

// fillTilesZero sets the valid region of pinned tiles to the ring's
// ⊕-identity — used when materializing VERBATIM ring values (DensifyRing,
// closure finalization), where absence must become an explicit Zero.
func fillTilesZero(tiles []*array.Tile, ring *scalarop.Semiring) {
	for _, t := range tiles {
		for i := t.RowLo; i < t.RowHi; i++ {
			for j := t.ColLo; j < t.ColHi; j++ {
				t.Set(i, j, ring.Zero)
			}
		}
	}
}

// AddDenseRing ⊕-merges two aligned dense matrices elementwise in the
// storage domain: absent (0) on one side takes the other's value,
// present on both sides ⊕-combines. The closure iteration's merge step
// for the dense kind.
func AddDenseRing(pool *buffer.Pool, name string, a, b *array.Matrix, ring *scalarop.Semiring) (*array.Matrix, error) {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return nil, fmt.Errorf("linalg: shape mismatch %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	atr, atc := a.TileDims()
	btr, btc := b.TileDims()
	if atr != btr || atc != btc {
		return nil, fmt.Errorf("linalg: tile mismatch %dx%d vs %dx%d", atr, atc, btr, btc)
	}
	t, err := array.NewMatrix(pool, name, a.Rows(), a.Cols(), array.Options{Shape: a.Shape(), Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	gr, gc := a.GridDims()
	for ti := 0; ti < gr; ti++ {
		for tj := 0; tj < gc; tj++ {
			at, err := a.PinTile(ti, tj)
			if err != nil {
				return nil, err
			}
			bt, err := b.PinTile(ti, tj)
			if err != nil {
				at.Release()
				return nil, err
			}
			ct, err := t.PinTileNew(ti, tj)
			if err != nil {
				at.Release()
				bt.Release()
				return nil, err
			}
			for i := ct.RowLo; i < ct.RowHi; i++ {
				for j := ct.ColLo; j < ct.ColHi; j++ {
					av, bv := at.At(i, j), bt.At(i, j)
					switch {
					case av == 0:
						ct.Set(i, j, bv)
					case bv == 0:
						ct.Set(i, j, av)
					default:
						ct.Set(i, j, ring.Add(av, bv))
					}
				}
			}
			ct.MarkDirty()
			ct.Release()
			at.Release()
			bt.Release()
		}
	}
	return t, pool.FlushAll()
}

// FinalizeClosure converts a storage-domain closure iterate into the
// verbatim result the caller reads: absent (0) becomes an explicit
// ring.Zero, and the implicit ⊗-identity diagonal is ⊕-merged in (for
// minplus, unreached pairs read +Inf and the diagonal reads 0).
func FinalizeClosure(pool *buffer.Pool, name string, x *array.Matrix, ring *scalarop.Semiring) (*array.Matrix, error) {
	t, err := array.NewMatrix(pool, name, x.Rows(), x.Cols(), array.Options{Shape: x.Shape(), Lin: x.Lin()})
	if err != nil {
		return nil, err
	}
	gr, gc := x.GridDims()
	for ti := 0; ti < gr; ti++ {
		for tj := 0; tj < gc; tj++ {
			xt, err := x.PinTile(ti, tj)
			if err != nil {
				return nil, err
			}
			ct, err := t.PinTileNew(ti, tj)
			if err != nil {
				xt.Release()
				return nil, err
			}
			for i := ct.RowLo; i < ct.RowHi; i++ {
				for j := ct.ColLo; j < ct.ColHi; j++ {
					v := xt.At(i, j)
					if v == 0 {
						v = ring.Zero
					}
					if i == j {
						v = ring.Add(v, ring.One)
					}
					ct.Set(i, j, v)
				}
			}
			ct.MarkDirty()
			ct.Release()
			xt.Release()
		}
	}
	return t, pool.FlushAll()
}
