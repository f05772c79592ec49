package engine

import (
	"fmt"

	"riot/internal/algebra"
	"riot/internal/array"
	"riot/internal/sparse"
)

// The RIOT engine's sparse capability (engine.SparseEngine): explicit
// kind conversions and the nnz statistic. Conversions are storage
// operations, not algebra — they force the expression and wrap the
// result as a new source of the requested kind, so everything downstream
// (kernels, planner, catalog publishing) sees the kind in the node.

// ToSparse implements SparseEngine: force the value and return a handle
// backed by tile-compressed storage. Sparse handles pass through
// unchanged; a sparse×sparse product is captured without densifying.
func (r *RIOT) ToSparse(v Value) (Value, error) {
	n, err := r.node(v)
	if err != nil {
		return nil, err
	}
	if n.Shape.Vector {
		if n.Op == algebra.OpSourceVec && n.SVec != nil {
			return v, nil
		}
		vec, err := r.ForceVector(v)
		if err != nil {
			return nil, err
		}
		sv, err := sparse.FromDenseVector(r.ex.Pool(), r.fresh("sv"), vec)
		if err != nil {
			return nil, err
		}
		return r.g.SourceSparseVec(sv), nil
	}
	if n.Op == algebra.OpSourceMat && n.SMat != nil {
		return v, nil
	}
	root, err := r.optimize(n)
	if err != nil {
		return nil, err
	}
	d, s, temp, err := r.ex.ForceMatrixOwned(root, r.fresh("res"))
	if err != nil {
		return nil, err
	}
	if s != nil {
		// A naturally sparse result becomes the new source directly.
		return r.g.SourceSparseMat(s), nil
	}
	sm, ferr := sparse.FromDense(r.ex.Pool(), r.fresh("sm"), d)
	if temp {
		// The dense intermediate was only the conversion's input.
		d.Free()
	}
	if ferr != nil {
		return nil, ferr
	}
	return r.g.SourceSparseMat(sm), nil
}

// ToDense implements SparseEngine. Dense-kind values pass through
// without forcing (deferral is preserved); sparse-kind values are
// forced into dense tiles.
func (r *RIOT) ToDense(v Value) (Value, error) {
	n, err := r.node(v)
	if err != nil {
		return nil, err
	}
	if n.Shape.Vector {
		if n.Op != algebra.OpSourceVec || n.SVec == nil {
			return v, nil
		}
		dv, err := n.SVec.ToDense(r.ex.Pool(), r.fresh("dv"))
		if err != nil {
			return nil, err
		}
		return r.g.SourceVec(dv), nil
	}
	if n.MatKind() != array.Sparse {
		return v, nil
	}
	m, err := r.forceMat(n)
	if err != nil {
		return nil, err
	}
	return r.g.SourceMat(m), nil
}

// NNZ implements SparseEngine. Sparse handles answer from their
// directory with no I/O; dense values are forced and scanned.
func (r *RIOT) NNZ(v Value) (int64, error) {
	n, err := r.node(v)
	if err != nil {
		return 0, err
	}
	if n.Shape.Vector {
		if n.Op == algebra.OpSourceVec && n.SVec != nil {
			return n.SVec.NNZ(), nil
		}
		vals, err := r.Fetch(v, -1)
		if err != nil {
			return 0, err
		}
		return countNonzero(vals), nil
	}
	if n.Op == algebra.OpSourceMat && n.SMat != nil {
		return n.SMat.NNZ(), nil
	}
	root, err := r.optimize(n)
	if err != nil {
		return 0, err
	}
	// The forced result only backs this count: free intermediates so
	// repeated nnz() calls don't grow the device until session close.
	d, s, temp, err := r.ex.ForceMatrixOwned(root, r.fresh("res"))
	if err != nil {
		return 0, err
	}
	if s != nil {
		nnz := s.NNZ()
		if temp {
			s.Free()
		}
		return nnz, nil
	}
	var nnz int64
	gr, gc := d.GridDims()
	for ti := 0; ti < gr; ti++ {
		for tj := 0; tj < gc; tj++ {
			t, err := d.PinTile(ti, tj)
			if err != nil {
				return 0, err
			}
			for i := t.RowLo; i < t.RowHi; i++ {
				for j := t.ColLo; j < t.ColHi; j++ {
					if t.At(i, j) != 0 {
						nnz++
					}
				}
			}
			t.Release()
		}
	}
	if temp {
		d.Free()
	}
	return nnz, nil
}

// fetchSparseMatrix reads up to limit elements of a sparse matrix in
// row-major order, decoding tile-wise: each tile is pinned and decoded
// once (empty tiles cost nothing) instead of once per element.
func fetchSparseMatrix(m *sparse.Matrix, limit int64) ([]float64, error) {
	cols := m.Cols()
	count := m.Rows() * cols
	if limit >= 0 && limit < count {
		count = limit
	}
	out := make([]float64, count)
	tr, tc := m.TileDims()
	gr, gc := m.GridDims()
	scratch := make([]float64, tr*tc)
	for ti := 0; ti < gr; ti++ {
		if int64(ti)*int64(tr)*cols >= count {
			break // every element of this tile row is past the limit
		}
		for tj := 0; tj < gc; tj++ {
			rowLo, rowHi, colLo, colHi := m.TileBounds(ti, tj)
			if rowLo*cols+colLo >= count {
				break
			}
			if m.TileEmpty(ti, tj) {
				continue // out is zero-initialized
			}
			if err := m.ReadTile(ti, tj, scratch); err != nil {
				return nil, err
			}
			for i := rowLo; i < rowHi; i++ {
				for j := colLo; j < colHi; j++ {
					if k := i*cols + j; k < count {
						out[k] = scratch[(i-rowLo)*int64(tc)+(j-colLo)]
					}
				}
			}
		}
	}
	return out, nil
}

func countNonzero(vals []float64) int64 {
	var n int64
	for _, v := range vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// NewSparseMatrix builds a rows×cols sparse source tile by tile, with no
// dense intermediate: fill sets the tiles through a Builder over the
// instance's pool, in the square-tile geometry NewMatrix uses. side is
// the tile side the caller's tiles were cut to; a mismatch is refused
// before anything is allocated. A fill error abandons the build.
func (r *RIOT) NewSparseMatrix(rows, cols int64, side int, fill func(*sparse.Builder) error) (Value, error) {
	if tr, _, err := array.TileDimsFor(r.ex.Pool().Device().BlockElems(), array.SquareTiles); err != nil || tr != side {
		return nil, fmt.Errorf("riot: tiles of side %d do not match the session's side %d", side, tr)
	}
	b, err := sparse.NewBuilder(r.ex.Pool(), r.fresh("sm"), rows, cols, array.Options{Shape: array.SquareTiles})
	if err != nil {
		return nil, err
	}
	if err := fill(b); err != nil {
		b.Abandon()
		return nil, err
	}
	sm, err := b.Finish()
	if err != nil {
		return nil, err
	}
	return r.g.SourceSparseMat(sm), nil
}

// WrapSparseVector lifts a stored sparse vector into the instance's DAG
// (the catalog's read path for sparse entries).
func (r *RIOT) WrapSparseVector(v *sparse.Vector) Value { return r.g.SourceSparseVec(v) }

// WrapSparseMatrix lifts a stored sparse matrix into the instance's DAG.
func (r *RIOT) WrapSparseMatrix(m *sparse.Matrix) Value { return r.g.SourceSparseMat(m) }

// SparseVectorOf returns the sparse store behind a value, if the value
// is a sparse vector source (the catalog's publish path asks before
// deciding which entry kind to write).
func (r *RIOT) SparseVectorOf(v Value) (*sparse.Vector, bool) {
	n, ok := v.(*algebra.Node)
	if !ok || n.Op != algebra.OpSourceVec || n.SVec == nil {
		return nil, false
	}
	return n.SVec, true
}

// SparseMatrixOf returns the sparse store behind a value, if the value
// is a sparse matrix source.
func (r *RIOT) SparseMatrixOf(v Value) (*sparse.Matrix, bool) {
	n, ok := v.(*algebra.Node)
	if !ok || n.Op != algebra.OpSourceMat || n.SMat == nil {
		return nil, false
	}
	return n.SMat, true
}

// ForceSparseMatrix forces a matrix-valued expression all the way into a
// stored sparse matrix (densifying results whose natural kind is dense,
// then compressing them). The catalog's publish path for sparse names.
func (r *RIOT) ForceSparseMatrix(v Value) (*sparse.Matrix, error) {
	sv, err := r.ToSparse(v)
	if err != nil {
		return nil, err
	}
	n, ok := sv.(*algebra.Node)
	if !ok || n.SMat == nil {
		return nil, fmt.Errorf("riot: ToSparse produced no sparse matrix")
	}
	return n.SMat, nil
}

// ForceAnyMatrix forces a matrix-valued expression into stored form,
// preserving its natural kind: exactly one of the returns is non-nil. A
// sparse×sparse product stays compressed all the way into the catalog's
// publish path. The caller owns the result (it lives until the engine
// closes); evaluate-and-discard callers should use ForceDiscard.
func (r *RIOT) ForceAnyMatrix(v Value) (*array.Matrix, *sparse.Matrix, error) {
	n, err := r.node(v)
	if err != nil {
		return nil, nil, err
	}
	if n.Shape.Vector {
		return nil, nil, fmt.Errorf("riot: ForceAnyMatrix of vector value")
	}
	root, err := r.optimize(n)
	if err != nil {
		return nil, nil, err
	}
	return r.ex.ForceMatrixAny(root, r.fresh("res"))
}

// ForceDiscard evaluates a matrix expression end to end — in its
// natural kind, with all the kernel I/O that implies — and immediately
// releases the result if it was an intermediate. It is the measurement
// hook behind riot.Matrix.Force: repeated calls do not grow the device.
func (r *RIOT) ForceDiscard(v Value) error {
	n, err := r.node(v)
	if err != nil {
		return err
	}
	if n.Shape.Vector {
		return fmt.Errorf("riot: ForceDiscard of vector value")
	}
	root, err := r.optimize(n)
	if err != nil {
		return err
	}
	d, s, temp, err := r.ex.ForceMatrixOwned(root, r.fresh("res"))
	if err != nil {
		return err
	}
	if temp {
		if d != nil {
			d.Free()
		}
		if s != nil {
			s.Free()
		}
	}
	return nil
}

var _ SparseEngine = (*RIOT)(nil)
