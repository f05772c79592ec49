package engine

import (
	"fmt"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/linalg"
	"riot/internal/scalarop"
	"riot/internal/sparse"
)

// The RIOT engine's semi-ring capability (engine.RingEngine): ring
// matrix products stay lazy DAG nodes (the ring travels in the node and
// selects the kernel at force time), while the closure is an eager
// composite — a data-dependent loop of kernel calls has no fixed DAG.

// MatMulRing implements RingEngine: a lazy matrix product over the
// named semi-ring. ring "" or "standard" interns onto the same node a
// plain MatMul would.
func (r *RIOT) MatMulRing(a, b Value, ring string) (Value, error) {
	an, err := r.node(a)
	if err != nil {
		return nil, err
	}
	bn, err := r.node(b)
	if err != nil {
		return nil, err
	}
	return r.g.MatMulRing(an, bn, ring)
}

// Closure implements RingEngine: the reflexive-transitive closure of a
// square matrix under the named ring, by repeated squaring. Both kinds
// iterate X ← X ⊕ (X ⊗ X) in the storage domain (stored 0 = absent =
// ring.Zero, diagonal implicit) — a sparse operand through the sparse
// ring kernels, where paths only ever cross tiles the adjacency
// structure reaches, so block I/O follows the graph's shape, not the
// grid — and finalize once at the end into verbatim ring values
// (absent → ring.Zero, diagonal ⊕ One; for minplus, unreachable pairs
// read +Inf and the diagonal 0). The diagonal stays implicit during
// iteration because the tropical One is float64 0, which storage-domain
// kernels would read back as absent. The per-iteration kernel work is
// charged to flops_by_op under "closure[ring]".
func (r *RIOT) Closure(v Value, ring string) (Value, error) {
	sr, err := scalarop.Ring(ring)
	if err != nil {
		return nil, err
	}
	n, err := r.node(v)
	if err != nil {
		return nil, err
	}
	if n.Shape.Vector {
		return nil, fmt.Errorf("riot: closure requires a matrix")
	}
	if n.Shape.Rows != n.Shape.Cols {
		return nil, fmt.Errorf("riot: closure requires a square matrix, got %dx%d", n.Shape.Rows, n.Shape.Cols)
	}
	rows := n.Shape.Rows
	root, err := r.optimize(n)
	if err != nil {
		return nil, err
	}
	d, s, temp, err := r.ex.ForceMatrixOwned(root, r.fresh("cl_in"))
	if err != nil {
		return nil, err
	}
	op := "closure[" + sr.Name + "]"
	if s != nil {
		m, err := r.closureSparse(s, temp, rows, sr, op)
		if err != nil {
			return nil, err
		}
		return r.g.SourceMat(m), nil
	}
	m, err := r.closureDense(d, temp, rows, sr, op)
	if err != nil {
		return nil, err
	}
	return r.g.SourceMat(m), nil
}

func (r *RIOT) closureSparse(s *sparse.Matrix, temp bool, rows int64, ring *scalarop.Semiring, op string) (*array.Matrix, error) {
	pool := r.ex.Pool()
	c, own := s, temp
	for span := int64(1); span < rows-1; span *= 2 {
		sq, err := linalg.MatMulSparseSparse(pool, r.fresh("cl_sq"), c, c, ring)
		if err != nil {
			if own {
				c.Free()
			}
			return nil, err
		}
		if m := c.Cols(); m > 0 {
			r.ex.ChargeFlops(op, c.NNZ()*c.NNZ()/m)
		}
		merged, err := linalg.AddSparseRing(pool, r.fresh("cl_acc"), c, sq, ring)
		r.ex.ChargeFlops(op, c.NNZ()+sq.NNZ())
		sq.Free()
		if own {
			c.Free()
		}
		if err != nil {
			return nil, err
		}
		c, own = merged, true
	}
	out, err := linalg.DensifyRing(pool, r.fresh("closure"), c, ring, true)
	if own {
		c.Free()
	}
	return out, err
}

func (r *RIOT) closureDense(d *array.Matrix, temp bool, rows int64, ring *scalarop.Semiring, op string) (*array.Matrix, error) {
	pool := r.ex.Pool()
	x, own := d, temp
	// The tiled square and the ⊕-merge both need square, mutually
	// aligned tiles; re-lay a row/col-tiled operand once up front.
	if tr, tc := x.TileDims(); tr != tc {
		sq, err := retileSquare(pool, r.fresh("cl_rt"), x)
		if own {
			x.Free()
		}
		if err != nil {
			return nil, err
		}
		x, own = sq, true
	}
	for span := int64(1); span < rows-1; span *= 2 {
		y, err := linalg.MatMulTiled(pool, r.fresh("cl_sq"), x, x, r.ex.Workers, ring)
		if err != nil {
			if own {
				x.Free()
			}
			return nil, err
		}
		r.ex.ChargeFlops(op, rows*rows*rows)
		merged, err := linalg.AddDenseRing(pool, r.fresh("cl_acc"), x, y, ring)
		r.ex.ChargeFlops(op, rows*rows)
		y.Free()
		if own {
			x.Free()
		}
		if err != nil {
			return nil, err
		}
		x, own = merged, true
	}
	out, err := linalg.FinalizeClosure(pool, r.fresh("closure"), x, ring)
	if own {
		x.Free()
	}
	return out, err
}

// retileSquare copies a matrix into the default square-tile layout.
func retileSquare(pool *buffer.Pool, name string, a *array.Matrix) (*array.Matrix, error) {
	t, err := array.NewMatrix(pool, name, a.Rows(), a.Cols(), array.Options{Shape: array.SquareTiles, Lin: a.Lin()})
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < a.Rows(); i++ {
		for j := int64(0); j < a.Cols(); j++ {
			v, err := a.At(i, j)
			if err != nil {
				return nil, err
			}
			if err := t.Set(i, j, v); err != nil {
				return nil, err
			}
		}
	}
	return t, pool.FlushAll()
}

var _ RingEngine = (*RIOT)(nil)
