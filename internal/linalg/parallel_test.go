package linalg

import (
	"runtime"
	"testing"
	"time"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/disk"
	"riot/internal/scalarop"
)

// newParallelPool builds a sharded pool whose budget the test matrices
// comfortably exceed, forcing real out-of-core behaviour.
func newParallelPool(blockElems, frames, shards int) *buffer.Pool {
	return buffer.NewSharded(disk.NewDevice(blockElems), frames, shards)
}

func matValues(t *testing.T, m *array.Matrix) []float64 {
	t.Helper()
	out := make([]float64, m.Rows()*m.Cols())
	for i := int64(0); i < m.Rows(); i++ {
		for j := int64(0); j < m.Cols(); j++ {
			v, err := m.At(i, j)
			if err != nil {
				t.Fatal(err)
			}
			out[i*m.Cols()+j] = v
		}
	}
	return out
}

// TestMatMulTiledWorkersMatchesSequential checks that every worker count
// produces a bit-identical product: parallelism only changes which
// goroutine computes an output super-block, never the accumulation order
// within an output tile.
func TestMatMulTiledWorkersMatchesSequential(t *testing.T) {
	const blockElems = 64 // 8x8 tiles
	const n = 96          // 12x12 tile grid, 144 tiles per matrix
	mk := func(workers, shards int) []float64 {
		pool := newParallelPool(blockElems, 27, shards)
		a, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			t.Fatal(err)
		}
		b, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			t.Fatal(err)
		}
		fillRand(t, a, 1)
		fillRand(t, b, 2)
		c, err := MatMulTiled(pool, "c", a, b, workers, scalarop.Standard)
		if err != nil {
			t.Fatal(err)
		}
		return matValues(t, c)
	}
	want := mk(1, 1)
	for _, w := range []int{2, 3, 4, 8} {
		got := mk(w, 4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: element %d = %v, want %v (must be bit-identical)", w, i, got[i], want[i])
			}
		}
	}
}

// TestMatMulTiledWorkersRespectsBudget asks for far more workers than the
// pool can host; the kernel must clamp in-flight workers instead of
// blowing the frame budget.
func TestMatMulTiledWorkersRespectsBudget(t *testing.T) {
	const blockElems = 64
	const n = 64                              // 8x8 grid
	pool := newParallelPool(blockElems, 6, 2) // only two workers' worth of frames at q=1
	a, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
	if err != nil {
		t.Fatal(err)
	}
	b, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
	if err != nil {
		t.Fatal(err)
	}
	fillRand(t, a, 3)
	fillRand(t, b, 4)
	c, err := MatMulTiled(pool, "c", a, b, 64, scalarop.Standard)
	if err != nil {
		t.Fatalf("budget-clamped parallel multiply failed: %v", err)
	}
	pool2 := newParallelPool(blockElems, 48, 1)
	a2, _ := array.NewMatrix(pool2, "a", n, n, array.Options{Shape: array.SquareTiles})
	b2, _ := array.NewMatrix(pool2, "b", n, n, array.Options{Shape: array.SquareTiles})
	fillRand(t, a2, 3)
	fillRand(t, b2, 4)
	want, err := MatMulTiled(pool2, "c", a2, b2, 1, scalarop.Standard)
	if err != nil {
		t.Fatal(err)
	}
	gotV, wantV := matValues(t, c), matValues(t, want)
	for i := range wantV {
		if gotV[i] != wantV[i] {
			t.Fatalf("element %d = %v, want %v", i, gotV[i], wantV[i])
		}
	}
}

// TestTransposeWorkersMatchesSequential covers all three source tilings,
// including the column-tiled case where two workers' stripes share
// output tiles (but never output elements).
func TestTransposeWorkersMatchesSequential(t *testing.T) {
	const blockElems = 64
	for _, shape := range []array.TileShape{array.RowTiles, array.ColTiles, array.SquareTiles} {
		mk := func(workers, shards int) []float64 {
			pool := newParallelPool(blockElems, 12, shards)
			a, err := array.NewMatrix(pool, "a", 40, 56, array.Options{Shape: shape})
			if err != nil {
				t.Fatal(err)
			}
			fillRand(t, a, 7)
			tr, err := TransposeWorkers(pool, "t", a, workers)
			if err != nil {
				t.Fatal(err)
			}
			return matValues(t, tr)
		}
		want := mk(1, 1)
		for _, w := range []int{2, 4} {
			got := mk(w, 4)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shape=%v workers=%d: element %d = %v, want %v", shape, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelMatMulSpeedup measures wall-clock speedup of the parallel
// kernel on a matrix that exceeds the pool budget. It needs real cores
// to mean anything, so it skips on small machines.
func TestParallelMatMulSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup test, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const blockElems = 4096 // 64x64 tiles
	const n = 768           // 12x12 grid, 144 tiles; budget is 48
	run := func(workers, shards int) time.Duration {
		pool := newParallelPool(blockElems, 48, shards)
		a, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			t.Fatal(err)
		}
		b, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			t.Fatal(err)
		}
		fillRand(t, a, 1)
		fillRand(t, b, 2)
		start := time.Now()
		if _, err := MatMulTiled(pool, "c", a, b, workers, scalarop.Standard); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(1, 1) // warm up allocator and caches
	seq := run(1, 1)
	par := run(4, 4)
	t.Logf("sequential %v, 4 workers %v (%.2fx)", seq, par, float64(seq)/float64(par))
	if float64(seq)/float64(par) < 1.5 {
		t.Errorf("4-worker speedup %.2fx, want >= 1.5x", float64(seq)/float64(par))
	}
}

func benchMatMulWorkers(b *testing.B, workers int) {
	const blockElems = 4096
	const n = 768
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool := newParallelPool(blockElems, 48, workers)
		am, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			b.Fatal(err)
		}
		bm, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			b.Fatal(err)
		}
		if err := am.Fill(func(i, j int64) float64 { return float64((i + j) % 13) }); err != nil {
			b.Fatal(err)
		}
		if err := bm.Fill(func(i, j int64) float64 { return float64((i * j) % 11) }); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := MatMulTiled(pool, "c", am, bm, workers, scalarop.Standard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMulTiledWorkers shows the wall-clock effect of the worker
// count on an out-of-core multiply (the workers ablation in the bench
// log tracks the same numbers).
func BenchmarkMatMulTiledWorkers1(b *testing.B) { benchMatMulWorkers(b, 1) }
func BenchmarkMatMulTiledWorkers2(b *testing.B) { benchMatMulWorkers(b, 2) }
func BenchmarkMatMulTiledWorkers4(b *testing.B) { benchMatMulWorkers(b, 4) }
