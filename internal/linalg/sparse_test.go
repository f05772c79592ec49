package linalg

import (
	"math"
	"math/rand"
	"testing"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/disk"
	"riot/internal/scalarop"
	"riot/internal/sparse"
)

type xorshift uint64

func (x *xorshift) next() float64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return float64(*x%1000003) / 1000003
}

func genDense(t *testing.T, pool *buffer.Pool, name string, rows, cols int64, density float64, seed uint64) *array.Matrix {
	t.Helper()
	rng := xorshift(seed*2654435761 + 1)
	m, err := array.NewMatrix(pool, name, rows, cols, array.Options{Shape: array.SquareTiles})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(func(i, j int64) float64 {
		if rng.next() < density {
			return 1 + rng.next()
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func matEqual(t *testing.T, ctx string, got interface {
	At(i, j int64) (float64, error)
}, want *array.Matrix) {
	t.Helper()
	for i := int64(0); i < want.Rows(); i++ {
		for j := int64(0); j < want.Cols(); j++ {
			w, err := want.At(i, j)
			if err != nil {
				t.Fatal(err)
			}
			g, err := got.At(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if g != w {
				t.Fatalf("%s: (%d,%d) = %g, want %g", ctx, i, j, g, w)
			}
		}
	}
}

// TestSparseKernelsAgreeWithDense is the property test of the sparse
// subsystem: every sparse kernel must agree elementwise with its dense
// counterpart on random matrices at densities {0, 0.01, 0.1, 1.0}.
// Accumulation orders match the dense tiled kernel's (row-major,
// ascending k), so agreement is exact, not approximate.
func TestSparseKernelsAgreeWithDense(t *testing.T) {
	for _, d := range []float64{0, 0.01, 0.1, 1.0} {
		pool := buffer.New(disk.NewDevice(64), 64) // 8×8 tiles
		a := genDense(t, pool, "a", 37, 29, d, 1)
		b := genDense(t, pool, "b", 29, 41, d, 2)
		sa, err := sparse.FromDense(pool, "sa", a)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := sparse.FromDense(pool, "sb", b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MatMulTiled(pool, "want", a, b, 1, scalarop.Standard)
		if err != nil {
			t.Fatal(err)
		}

		sd, err := MatMulSparseDense(pool, "sd", sa, b, scalarop.Standard)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, "sparse×dense", sd, want)

		ds, err := MatMulDenseSparse(pool, "ds", a, sb, scalarop.Standard)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, "dense×sparse", ds, want)

		ss, err := MatMulSparseSparse(pool, "ss", sa, sb, scalarop.Standard)
		if err != nil {
			t.Fatal(err)
		}
		matEqual(t, "sparse×sparse", ss, want)
	}
}

// TestSparseMatMulZeroAndDegenerate drives the empty-matrix edge cases
// through the sparse kernels: all-zero operands and 0×0 / 0×n shapes.
func TestSparseMatMulZeroAndDegenerate(t *testing.T) {
	pool := buffer.New(disk.NewDevice(64), 64)
	zero := genDense(t, pool, "z", 20, 20, 0, 1)
	sz, err := sparse.FromDense(pool, "sz", zero)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := MatMulSparseSparse(pool, "ss", sz, sz, scalarop.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NNZ() != 0 || ss.Blocks() != 0 {
		t.Fatalf("zero × zero: nnz=%d blocks=%d", ss.NNZ(), ss.Blocks())
	}
	// 0×n shapes flow through the builder and the kernels.
	e1, err := sparse.New(pool, "e1", 0, 16, array.Options{Shape: array.SquareTiles}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sparse.New(pool, "e2", 16, 0, array.Options{Shape: array.SquareTiles}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = e2
	full := genDense(t, pool, "f", 16, 16, 1, 5)
	sf, err := sparse.FromDense(pool, "sf", full)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := MatMulSparseSparse(pool, "p", e1, sf, scalarop.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Rows() != 0 || prod.Cols() != 16 || prod.NNZ() != 0 {
		t.Fatalf("0×16 product: %d×%d nnz=%d", prod.Rows(), prod.Cols(), prod.NNZ())
	}
	pd, err := MatMulSparseDense(pool, "pd", e1, full, scalarop.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Rows() != 0 || pd.Cols() != 16 {
		t.Fatalf("0×16 dense product: %d×%d", pd.Rows(), pd.Cols())
	}
}

// TestSparseMatMulSkipsEmptyTiles pins the I/O claim: multiplying a
// banded (pathlengths-style) adjacency matrix with the sparse×sparse
// kernel reads a small fraction of what the dense tiled kernel reads on
// the same shape.
func TestSparseMatMulSkipsEmptyTiles(t *testing.T) {
	const n, band = 256, 2 // ~2% density, banded: most 8×8 tiles empty
	mk := func() (*buffer.Pool, *array.Matrix) {
		pool := buffer.New(disk.NewDevice(64), 48)
		adj, err := array.NewMatrix(pool, "adj", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			t.Fatal(err)
		}
		if err := adj.Fill(func(i, j int64) float64 {
			d := i - j
			if d < 0 {
				d = -d
			}
			if d != 0 && d <= band {
				return 1
			}
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		return pool, adj
	}

	pool1, adj1 := mk()
	pool1.Device().ResetStats()
	if _, err := MatMulTiled(pool1, "dd", adj1, adj1, 1, scalarop.Standard); err != nil {
		t.Fatal(err)
	}
	denseReads := pool1.Device().Stats().BlocksRead

	pool2, adj2 := mk()
	sadj, err := sparse.FromDense(pool2, "sadj", adj2)
	if err != nil {
		t.Fatal(err)
	}
	pool2.Device().ResetStats()
	if _, err := MatMulSparseSparse(pool2, "ss", sadj, sadj, scalarop.Standard); err != nil {
		t.Fatal(err)
	}
	sparseReads := pool2.Device().Stats().BlocksRead

	if sparseReads*4 > denseReads {
		t.Fatalf("sparse matmul read %d blocks, dense %d: want at least 4× fewer", sparseReads, denseReads)
	}
}

// specialValues are the operand elements of the bit-identity test:
// signed zeros, infinities, NaN and magnitudes whose products overflow
// or underflow, so any change to which products are formed, or in what
// order they are summed, shows up in the bits.
var specialValues = []float64{0, 1.5, -1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1e300, 1e-300}

// TestStandardRingBitIdentical pins the standard ring's arithmetic in
// every kernel to one reference: c[i][j] sums a[i][k]·b[k][j] from +0 in
// ascending k, skipping only the k where a sparse operand's element is
// absent (stored 0 or -0). Dense operands skip nothing, so 0·Inf is NaN.
// Results must match bit for bit, with any NaN equal to any NaN.
func TestStandardRingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := [][3]int64{{13, 11, 9}, {8, 8, 8}, {20, 17, 6}, {3, 21, 5}}
	for _, dims := range shapes {
		for _, d := range []float64{0.2, 0.7, 1.0} {
			l, m, n := dims[0], dims[1], dims[2]
			draw := func(rows, cols int64) [][]float64 {
				out := make([][]float64, rows)
				for i := range out {
					out[i] = make([]float64, cols)
					for j := range out[i] {
						if rng.Float64() < d {
							out[i][j] = specialValues[rng.Intn(len(specialValues))]
						}
					}
				}
				return out
			}
			av, bv := draw(l, m), draw(m, n)
			ref := func(aSparse, bSparse bool) [][]float64 {
				out := make([][]float64, l)
				for i := range out {
					out[i] = make([]float64, n)
					for j := range out[i] {
						var s float64
						for k := int64(0); k < m; k++ {
							x, y := av[i][k], bv[k][j]
							if (aSparse && x == 0) || (bSparse && y == 0) {
								continue
							}
							s += x * y
						}
						out[i][j] = s
					}
				}
				return out
			}

			pool := buffer.New(disk.NewDevice(16), 64) // 4×4 tiles
			load := func(name string, v [][]float64) (*array.Matrix, *sparse.Matrix) {
				dm, err := array.NewMatrix(pool, name, int64(len(v)), int64(len(v[0])), array.Options{Shape: array.SquareTiles})
				if err != nil {
					t.Fatal(err)
				}
				if err := dm.Fill(func(i, j int64) float64 { return v[i][j] }); err != nil {
					t.Fatal(err)
				}
				sm, err := sparse.FromDense(pool, "s"+name, dm)
				if err != nil {
					t.Fatal(err)
				}
				return dm, sm
			}
			da, sa := load("a", av)
			db, sb := load("b", bv)

			check := func(kernel string, got interface {
				At(i, j int64) (float64, error)
			}, want [][]float64) {
				t.Helper()
				for i := range want {
					for j := range want[i] {
						g, err := got.At(int64(i), int64(j))
						if err != nil {
							t.Fatal(err)
						}
						w := want[i][j]
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("%dx%dx%d d=%g %s: (%d,%d) = %g (%#x), want %g (%#x)",
								l, m, n, d, kernel, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
				}
			}

			dd, err := MatMulTiled(pool, "dd", da, db, 1, scalarop.Standard)
			if err != nil {
				t.Fatal(err)
			}
			check("tiled micro", dd, ref(false, false))
			sd, err := MatMulSparseDense(pool, "sd", sa, db, scalarop.Standard)
			if err != nil {
				t.Fatal(err)
			}
			check("sparse×dense", sd, ref(true, false))
			ds, err := MatMulDenseSparse(pool, "ds", da, sb, scalarop.Standard)
			if err != nil {
				t.Fatal(err)
			}
			check("dense×sparse", ds, ref(false, true))
			ss, err := MatMulSparseSparse(pool, "ss", sa, sb, scalarop.Standard)
			if err != nil {
				t.Fatal(err)
			}
			check("sparse×sparse", ss, ref(true, true))
		}
	}
}
