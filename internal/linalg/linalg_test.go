package linalg

import (
	"math"
	"math/rand"
	"testing"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/costmodel"
	"riot/internal/disk"
	"riot/internal/scalarop"
)

// fillRand loads m with deterministic position-based pseudo-random
// values: the value at (i, j) depends only on (i, j, seed), not on the
// tile iteration order, so differently-tiled copies hold the same data.
func fillRand(t *testing.T, m *array.Matrix, seed int64) {
	t.Helper()
	if err := m.Fill(func(i, j int64) float64 { return posRand(i, j, seed) }); err != nil {
		t.Fatal(err)
	}
}

func posRand(i, j, seed int64) float64 {
	h := uint64(i*1000003+j*7919) ^ uint64(seed*2654435761)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%2000)/1000 - 1
}

// refMatMul computes the product in plain memory.
func refMatMul(t *testing.T, a, b *array.Matrix) [][]float64 {
	t.Helper()
	l, m, n := a.Rows(), a.Cols(), b.Cols()
	out := make([][]float64, l)
	av := dump(t, a)
	bv := dump(t, b)
	for i := int64(0); i < l; i++ {
		out[i] = make([]float64, n)
		for j := int64(0); j < n; j++ {
			var s float64
			for k := int64(0); k < m; k++ {
				s += av[i][k] * bv[k][j]
			}
			out[i][j] = s
		}
	}
	return out
}

func dump(t *testing.T, m *array.Matrix) [][]float64 {
	t.Helper()
	out := make([][]float64, m.Rows())
	for i := int64(0); i < m.Rows(); i++ {
		out[i] = make([]float64, m.Cols())
		for j := int64(0); j < m.Cols(); j++ {
			v, err := m.At(i, j)
			if err != nil {
				t.Fatal(err)
			}
			out[i][j] = v
		}
	}
	return out
}

func checkClose(t *testing.T, got *array.Matrix, want [][]float64, tol float64) {
	t.Helper()
	for i := int64(0); i < got.Rows(); i++ {
		for j := int64(0); j < got.Cols(); j++ {
			v, err := got.At(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v-want[i][j]) > tol {
				t.Fatalf("C[%d,%d]=%v, want %v", i, j, v, want[i][j])
			}
		}
	}
}

func TestMatMulTiledCorrectness(t *testing.T) {
	for _, dims := range [][3]int64{{20, 20, 20}, {33, 17, 25}, {5, 40, 9}, {16, 16, 16}} {
		dev := disk.NewDevice(16) // 4×4 tiles
		pool := buffer.New(dev, 48)
		a, _ := array.NewMatrix(pool, "a", dims[0], dims[1], array.Options{Shape: array.SquareTiles})
		b, _ := array.NewMatrix(pool, "b", dims[1], dims[2], array.Options{Shape: array.SquareTiles})
		fillRand(t, a, 1)
		fillRand(t, b, 2)
		want := refMatMul(t, a, b)
		c, err := MatMulTiled(pool, "c", a, b, 1, scalarop.Standard)
		if err != nil {
			t.Fatal(err)
		}
		checkClose(t, c, want, 1e-9)
	}
}

func TestMatMulBNLJCorrectness(t *testing.T) {
	dev := disk.NewDevice(16)
	pool := buffer.New(dev, 64)
	a, _ := array.NewMatrix(pool, "a", 23, 31, array.Options{Shape: array.RowTiles})
	b, _ := array.NewMatrix(pool, "b", 31, 19, array.Options{Shape: array.ColTiles})
	fillRand(t, a, 3)
	fillRand(t, b, 4)
	want := refMatMul(t, a, b)
	c, err := MatMulBNLJ(pool, "c", a, b, array.Options{Shape: array.RowTiles})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, c, want, 1e-9)
}

func TestMatMulNaiveCorrectness(t *testing.T) {
	dev := disk.NewDevice(16)
	pool := buffer.New(dev, 32)
	a, _ := array.NewMatrix(pool, "a", 9, 12, array.Options{Shape: array.ColTiles})
	b, _ := array.NewMatrix(pool, "b", 12, 7, array.Options{Shape: array.ColTiles})
	fillRand(t, a, 5)
	fillRand(t, b, 6)
	want := refMatMul(t, a, b)
	c, err := MatMulNaive(pool, "c", a, b, array.Options{Shape: array.ColTiles})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, c, want, 1e-9)
}

func TestKernelsAgree(t *testing.T) {
	// All three kernels must produce the same product.
	dev := disk.NewDevice(16)
	pool := buffer.New(dev, 64)
	mk := func(name string, r, c int64, shape array.TileShape, seed int64) *array.Matrix {
		m, err := array.NewMatrix(pool, name, r, c, array.Options{Shape: shape})
		if err != nil {
			t.Fatal(err)
		}
		fillRand(t, m, seed)
		return m
	}
	aSq := mk("aSq", 18, 14, array.SquareTiles, 7)
	bSq := mk("bSq", 14, 22, array.SquareTiles, 8)
	aRow := mk("aRow", 18, 14, array.RowTiles, 7)
	bCol := mk("bCol", 14, 22, array.ColTiles, 8)
	cTiled, err := MatMulTiled(pool, "c1", aSq, bSq, 1, scalarop.Standard)
	if err != nil {
		t.Fatal(err)
	}
	cBNLJ, err := MatMulBNLJ(pool, "c2", aRow, bCol, array.Options{Shape: array.RowTiles})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 18; i++ {
		for j := int64(0); j < 22; j++ {
			v1, _ := cTiled.At(i, j)
			v2, _ := cBNLJ.At(i, j)
			if math.Abs(v1-v2) > 1e-9 {
				t.Fatalf("kernels disagree at (%d,%d): %v vs %v", i, j, v1, v2)
			}
		}
	}
}

// E6: measured block I/O of the tiled kernel must track the analytic
// model within a small constant factor.
func TestTiledMatMulMatchesCostModel(t *testing.T) {
	const blockElems = 64 // 8×8 tiles
	const frames = 48     // M = 3072 elements
	for _, n := range []int64{96, 160} {
		dev := disk.NewDevice(blockElems)
		pool := buffer.New(dev, frames)
		a, _ := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		b, _ := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		fillRand(t, a, 1)
		fillRand(t, b, 2)
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		if _, err := MatMulTiled(pool, "c", a, b, 1, scalarop.Standard); err != nil {
			t.Fatal(err)
		}
		measured := float64(dev.Stats().TotalBlocks())
		params := costmodel.Params{MemElems: float64(pool.MemoryElems()), BlockElems: float64(blockElems)}
		predicted := costmodel.SquareTiled(float64(n), float64(n), float64(n), params)
		ratio := measured / predicted
		if ratio < 0.3 || ratio > 3 {
			t.Fatalf("n=%d: measured %v blocks vs model %v (ratio %.2f)", n, measured, predicted, ratio)
		}
	}
}

// The paper's §3/§5 claim: with little memory, the square-tiled schedule
// beats the BNLJ-inspired one on large matrices.
func TestTiledBeatsBNLJUnderTightMemory(t *testing.T) {
	const blockElems = 64
	const frames = 27 // tiny memory: M = 1728 elements
	const n = 144
	run := func(kernel string) int64 {
		dev := disk.NewDevice(blockElems)
		pool := buffer.New(dev, frames)
		var a, b *array.Matrix
		if kernel == "tiled" {
			a, _ = array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
			b, _ = array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		} else {
			a, _ = array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.RowTiles})
			b, _ = array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.ColTiles})
		}
		fillRand(t, a, 1)
		fillRand(t, b, 2)
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		var err error
		if kernel == "tiled" {
			_, err = MatMulTiled(pool, "c", a, b, 1, scalarop.Standard)
		} else {
			_, err = MatMulBNLJ(pool, "c", a, b, array.Options{Shape: array.RowTiles})
		}
		if err != nil {
			t.Fatal(err)
		}
		return dev.Stats().TotalBlocks()
	}
	tiled := run("tiled")
	bnlj := run("bnlj")
	if tiled >= bnlj {
		t.Fatalf("tiled (%d blocks) should beat BNLJ (%d blocks) under tight memory", tiled, bnlj)
	}
}

func TestDimensionMismatch(t *testing.T) {
	dev := disk.NewDevice(16)
	pool := buffer.New(dev, 16)
	a, _ := array.NewMatrix(pool, "a", 4, 5, array.Options{Shape: array.SquareTiles})
	b, _ := array.NewMatrix(pool, "b", 6, 4, array.Options{Shape: array.SquareTiles})
	if _, err := MatMulTiled(pool, "c", a, b, 1, scalarop.Standard); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := MatMulBNLJ(pool, "c", a, b, array.Options{}); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := LU(pool, "lu", a); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestTranspose(t *testing.T) {
	dev := disk.NewDevice(16)
	pool := buffer.New(dev, 16)
	a, _ := array.NewMatrix(pool, "a", 7, 11, array.Options{Shape: array.SquareTiles})
	fillRand(t, a, 9)
	at, err := Transpose(pool, "at", a)
	if err != nil {
		t.Fatal(err)
	}
	if at.Rows() != 11 || at.Cols() != 7 {
		t.Fatalf("transpose dims %dx%d", at.Rows(), at.Cols())
	}
	for i := int64(0); i < 7; i++ {
		for j := int64(0); j < 11; j++ {
			v1, _ := a.At(i, j)
			v2, _ := at.At(j, i)
			if v1 != v2 {
				t.Fatalf("at[%d,%d]=%v want %v", j, i, v2, v1)
			}
		}
	}
}

// diagDominant fills m with a random diagonally dominant matrix, safe
// for unpivoted LU.
func diagDominant(t *testing.T, m *array.Matrix, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := float64(m.Rows())
	if err := m.Fill(func(i, j int64) float64 {
		if i == j {
			return n + rng.Float64()*4
		}
		return rng.Float64()*2 - 1
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLUReconstructsA(t *testing.T) {
	for _, n := range []int64{8, 20, 33} {
		dev := disk.NewDevice(16)
		pool := buffer.New(dev, 32)
		a, _ := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		diagDominant(t, a, n)
		orig := dump(t, a)
		lu, err := LU(pool, "lu", a)
		if err != nil {
			t.Fatal(err)
		}
		f := dump(t, lu)
		// Reconstruct L·U and compare with A.
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < n; j++ {
				var s float64
				for k := int64(0); k <= min64(i, j); k++ {
					l := f[i][k]
					if k == i {
						l = 1
					}
					s += l * f[k][j] * boolTo(k <= j)
				}
				if math.Abs(s-orig[i][j]) > 1e-8 {
					t.Fatalf("n=%d: (LU)[%d,%d]=%v, want %v", n, i, j, s, orig[i][j])
				}
			}
		}
	}
}

func TestLUSolve(t *testing.T) {
	const n = 24
	dev := disk.NewDevice(16)
	pool := buffer.New(dev, 32)
	a, _ := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
	diagDominant(t, a, 5)
	av := dump(t, a)
	// Want x = [1, 2, ..., n]; b = A x.
	want := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		want[i] = float64(i + 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += av[i][j] * want[j]
		}
	}
	lu, err := LU(pool, "lu", a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := SolveLU(lu, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUZeroPivotFails(t *testing.T) {
	dev := disk.NewDevice(16)
	pool := buffer.New(dev, 16)
	a, _ := array.NewMatrix(pool, "a", 4, 4, array.Options{Shape: array.SquareTiles})
	if err := a.Fill(func(i, j int64) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := LU(pool, "lu", a); err == nil {
		t.Fatal("expected zero-pivot error")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestSolveLUPinCounters is the regression test for the tile-blocked
// substitution sweeps: the solve must cost O(tiles) pool requests — one
// pin per triangle tile per sweep — not the O(n²) element-at-a-time
// pins the Matrix.At path used to charge.
func TestSolveLUPinCounters(t *testing.T) {
	const n = 48
	dev := disk.NewDevice(16) // 4x4 tiles -> a 12x12 tile grid
	pool := buffer.New(dev, 256)
	a, _ := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
	diagDominant(t, a, 7)
	av := dump(t, a)
	want := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		want[i] = float64(2*i - 3)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += av[i][j] * want[j]
		}
	}
	lu, err := LU(pool, "lu", a)
	if err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()
	x, err := SolveLU(lu, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d]=%v, want %v", i, x[i], want[i])
		}
	}
	after := pool.Stats()
	pins := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	gr, _ := lu.GridDims()
	wantPins := int64(gr * (gr + 1)) // both triangular sweeps, diagonal twice
	if pins != wantPins {
		t.Errorf("solve issued %d pool requests, want exactly %d (grid %dx%d)", pins, wantPins, gr, gr)
	}
	// The old element-wise path cost ~n² pins; make the asymptotic claim
	// explicit too.
	if pins >= int64(n*n) {
		t.Errorf("solve pool requests %d not sublinear in elements (%d)", pins, n*n)
	}
}
