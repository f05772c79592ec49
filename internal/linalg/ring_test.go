package linalg

import (
	"math"
	"testing"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/disk"
	"riot/internal/scalarop"
	"riot/internal/sparse"
)

// ringRef computes the semi-ring product of two in-memory matrices in
// the same row-major ascending-k order the kernels use, so agreement is
// exact.
func ringRef(a, b [][]float64, ring *scalarop.Semiring) [][]float64 {
	l, m, n := len(a), len(b), len(b[0])
	out := make([][]float64, l)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			acc := ring.Zero
			for k := 0; k < m; k++ {
				acc = ring.Add(acc, ring.Mul(a[i][k], b[k][j]))
			}
			out[i][j] = acc
		}
	}
	return out
}

// toMem reads a dense matrix into memory.
func toMem(t *testing.T, m *array.Matrix) [][]float64 {
	t.Helper()
	out := make([][]float64, m.Rows())
	for i := range out {
		out[i] = make([]float64, m.Cols())
		for j := range out[i] {
			v, err := m.At(int64(i), int64(j))
			if err != nil {
				t.Fatal(err)
			}
			out[i][j] = v
		}
	}
	return out
}

// TestRingMatMulSparseVsDense is the semi-ring agreement property: for
// every non-standard ring, the product computed by every kernel variant
// — tiled dense, sparse×dense, dense×sparse, sparse×sparse — matches an
// in-memory reference elementwise at densities {0, .01, .1, 1}.
// Operands are fed both verbatim (absent = explicit ring.Zero via
// DensifyRing) and raw (the storage-domain convention: stored 0 =
// absent); results are read back under absent ⇔ ring.Zero regardless
// of kind.
func TestRingMatMulSparseVsDense(t *testing.T) {
	for _, name := range scalarop.RingNames() {
		ring, err := scalarop.Ring(name)
		if err != nil {
			t.Fatal(err)
		}
		if ring.IsStandard() {
			continue
		}
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
			// Ring-convention dense operands: absent elements become +Inf.
			da, err := DensifyRing(pool, "da", sa, ring, false)
			if err != nil {
				t.Fatal(err)
			}
			db, err := DensifyRing(pool, "db", sb, ring, false)
			if err != nil {
				t.Fatal(err)
			}
			want := ringRef(toMem(t, da), toMem(t, db), ring)

			// storageAt reads a storage-domain result: stored 0 is absent,
			// i.e. the ring's Zero.
			storageAt := func(at func(i, j int64) (float64, error)) func(i, j int64) (float64, error) {
				return func(i, j int64) (float64, error) {
					v, err := at(i, j)
					if err != nil || v != 0 {
						return v, err
					}
					return ring.Zero, nil
				}
			}

			check := func(ctx string, at func(i, j int64) (float64, error)) {
				t.Helper()
				for i := range want {
					for j := range want[i] {
						g, err := at(int64(i), int64(j))
						if err != nil {
							t.Fatal(err)
						}
						if g != want[i][j] {
							t.Fatalf("%s d=%g %s: (%d,%d) = %g, want %g", name, d, ctx, i, j, g, want[i][j])
						}
					}
				}
			}

			dd, err := MatMulTiled(pool, "dd", da, db, 1, ring)
			if err != nil {
				t.Fatal(err)
			}
			check("dense×dense tiled", storageAt(dd.At))

			ddw, err := MatMulTiled(pool, "ddw", da, db, 4, ring)
			if err != nil {
				t.Fatal(err)
			}
			check("dense×dense tiled 4 workers", storageAt(ddw.At))

			// Raw operands (0 = absent) must multiply exactly like their
			// verbatim densifications — the kind/storage-agnostic contract.
			ddr, err := MatMulTiled(pool, "ddr", a, b, 1, ring)
			if err != nil {
				t.Fatal(err)
			}
			check("dense×dense raw operands", storageAt(ddr.At))

			nv, err := MatMulNaiveRing(pool, "nv", da, db, array.Options{Shape: array.SquareTiles}, ring)
			if err != nil {
				t.Fatal(err)
			}
			check("dense×dense naive", storageAt(nv.At))

			sd, err := MatMulSparseDense(pool, "sd", sa, db, ring)
			if err != nil {
				t.Fatal(err)
			}
			check("sparse×dense", storageAt(sd.At))

			ds, err := MatMulDenseSparse(pool, "ds", da, sb, ring)
			if err != nil {
				t.Fatal(err)
			}
			check("dense×sparse", storageAt(ds.At))

			ss, err := MatMulSparseSparse(pool, "ss", sa, sb, ring)
			if err != nil {
				t.Fatal(err)
			}
			check("sparse×sparse", storageAt(ss.At))
		}
	}
}

// genIntDense is genDense with small integer weights, so multi-hop
// min-plus path sums are exact in float64 no matter how the additions
// associate — repeated squaring and Floyd–Warshall accumulate the same
// path in different orders.
func genIntDense(t *testing.T, pool *buffer.Pool, name string, n int64, density float64, seed uint64) *array.Matrix {
	t.Helper()
	rng := xorshift(seed*2654435761 + 1)
	m, err := array.NewMatrix(pool, name, n, n, array.Options{Shape: array.SquareTiles})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(func(i, j int64) float64 {
		if i != j && rng.next() < density {
			return 1 + math.Floor(rng.next()*8)
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRingClosureMatchesFloydWarshall drives the full sparse closure —
// repeated squaring C ← C ⊕ (C ⊗ C), then DensifyRing with the One
// diagonal — against an in-memory Floyd–Warshall on a random digraph.
func TestRingClosureMatchesFloydWarshall(t *testing.T) {
	ring, err := scalarop.Ring("minplus")
	if err != nil {
		t.Fatal(err)
	}
	const n = 37
	pool := buffer.New(disk.NewDevice(64), 64)
	adj := genIntDense(t, pool, "adj", n, 0.08, 7) // integer weights in [1, 8]
	sa, err := sparse.FromDense(pool, "sadj", adj)
	if err != nil {
		t.Fatal(err)
	}

	// Floyd–Warshall reference over the densified (+Inf for absent)
	// weights with a zero diagonal.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			v, err := adj.At(int64(i), int64(j))
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case i == j:
				dist[i][j] = 0
			case v != 0:
				dist[i][j] = v
			default:
				dist[i][j] = math.Inf(1)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}

	// Sparse closure: k = ⌈log₂(n-1)⌉ squarings cover every simple path.
	c := sa
	for span := int64(1); span < int64(n-1); span *= 2 {
		sq, err := MatMulSparseSparse(pool, "sq", c, c, ring)
		if err != nil {
			t.Fatal(err)
		}
		c, err = AddSparseRing(pool, "acc", c, sq, ring)
		if err != nil {
			t.Fatal(err)
		}
	}
	closed, err := DensifyRing(pool, "closed", c, ring, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g, err := closed.At(int64(i), int64(j))
			if err != nil {
				t.Fatal(err)
			}
			if g != dist[i][j] {
				t.Fatalf("closure (%d,%d) = %g, want %g", i, j, g, dist[i][j])
			}
		}
	}
}

// TestRingClosureDenseMatchesFloydWarshall drives the dense-kind
// closure iteration — X ← X ⊕ (X ⊗ X) in the storage domain, then
// FinalizeClosure (absent → ring.Zero, diagonal ⊕ One) — against the
// same Floyd–Warshall reference. The diagonal stays implicit during the
// iteration because the minplus One is float64 0, which storage-domain
// kernels read as absent.
func TestRingClosureDenseMatchesFloydWarshall(t *testing.T) {
	ring, err := scalarop.Ring("minplus")
	if err != nil {
		t.Fatal(err)
	}
	const n = 37
	pool := buffer.New(disk.NewDevice(64), 64)
	adj := genIntDense(t, pool, "adj", n, 0.08, 7)

	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			v, err := adj.At(int64(i), int64(j))
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case i == j:
				dist[i][j] = 0
			case v != 0:
				dist[i][j] = v
			default:
				dist[i][j] = math.Inf(1)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}

	x := adj
	for span := int64(1); span < int64(n-1); span *= 2 {
		y, err := MatMulTiled(pool, "sq", x, x, 2, ring)
		if err != nil {
			t.Fatal(err)
		}
		x, err = AddDenseRing(pool, "acc", x, y, ring)
		if err != nil {
			t.Fatal(err)
		}
	}
	closed, err := FinalizeClosure(pool, "closed", x, ring)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g, err := closed.At(int64(i), int64(j))
			if err != nil {
				t.Fatal(err)
			}
			if g != dist[i][j] {
				t.Fatalf("dense closure (%d,%d) = %g, want %g", i, j, g, dist[i][j])
			}
		}
	}
}
