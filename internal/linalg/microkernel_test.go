package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/disk"
)

// TestMicroMatchesNaiveBitIdentical is the microkernel's correctness
// contract: for every shape — including clipped edge tiles, non-square
// remainders, and degenerate 1×n / n×1 operands — the packed 4×4
// microkernel must produce the exact same bits as the naive
// tile-at-a-time triple loop, because both accumulate each element in
// the same k order. Tolerance-free: any reordering shows up here.
func TestMicroMatchesNaiveBitIdentical(t *testing.T) {
	shapes := [][3]int64{
		{20, 20, 20}, // multiple of the tile side
		{33, 17, 25}, // every dimension clips its edge tiles
		{5, 40, 9},   // wide inner dimension
		{1, 17, 1},   // scalar-shaped result
		{1, 5, 40},   // single row
		{40, 5, 1},   // single column
		{3, 3, 3},    // smaller than one tile
		{19, 1, 23},  // k=1: one fused multiply per element
		{64, 64, 64}, // several super-blocks under the small pool
	}
	// Randomized shapes on top of the fixed edge cases.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int64{
			1 + rng.Int63n(48), 1 + rng.Int63n(48), 1 + rng.Int63n(48),
		})
	}
	for _, blockElems := range []int{16, 64} { // 4×4 and 8×8 tiles
		for _, dims := range shapes {
			t.Run(fmt.Sprintf("B%d_%dx%dx%d", blockElems, dims[0], dims[1], dims[2]), func(t *testing.T) {
				dev := disk.NewDevice(blockElems)
				pool := buffer.New(dev, 48)
				a, err := array.NewMatrix(pool, "a", dims[0], dims[1], array.Options{Shape: array.SquareTiles})
				if err != nil {
					t.Fatal(err)
				}
				b, err := array.NewMatrix(pool, "b", dims[1], dims[2], array.Options{Shape: array.SquareTiles})
				if err != nil {
					t.Fatal(err)
				}
				fillRand(t, a, dims[0]^dims[1]<<8)
				fillRand(t, b, dims[2]^dims[1]<<16)
				cn, err := MatMulTiledKernel(pool, "cn", a, b, 1, KernelNaive)
				if err != nil {
					t.Fatal(err)
				}
				cm, err := MatMulTiledKernel(pool, "cm", a, b, 1, KernelMicro)
				if err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i < dims[0]; i++ {
					for j := int64(0); j < dims[2]; j++ {
						vn, err := cn.At(i, j)
						if err != nil {
							t.Fatal(err)
						}
						vm, err := cm.At(i, j)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(vn) != math.Float64bits(vm) {
							t.Fatalf("C[%d,%d]: naive %v (%#x) != micro %v (%#x)",
								i, j, vn, math.Float64bits(vn), vm, math.Float64bits(vm))
						}
					}
				}
			})
		}
	}
}

// TestMicroParallelMatchesSequential pins the worker path: the packed
// panels are per-worker scratch, and concurrent super-blocks must not
// perturb each other's pads.
func TestMicroParallelMatchesSequential(t *testing.T) {
	const r, k, c = 50, 37, 44
	dev := disk.NewDevice(16)
	pool := buffer.NewSharded(dev, 64, 4)
	a, err := array.NewMatrix(pool, "a", r, k, array.Options{Shape: array.SquareTiles})
	if err != nil {
		t.Fatal(err)
	}
	b, err := array.NewMatrix(pool, "b", k, c, array.Options{Shape: array.SquareTiles})
	if err != nil {
		t.Fatal(err)
	}
	fillRand(t, a, 91)
	fillRand(t, b, 92)
	seq, err := MatMulTiledKernel(pool, "seq", a, b, 1, KernelMicro)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MatMulTiledKernel(pool, "par", a, b, 4, KernelMicro)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < r; i++ {
		for j := int64(0); j < c; j++ {
			vs, _ := seq.At(i, j)
			vp, _ := par.At(i, j)
			if math.Float64bits(vs) != math.Float64bits(vp) {
				t.Fatalf("C[%d,%d]: sequential %v != parallel %v", i, j, vs, vp)
			}
		}
	}
}

// benchMatMul reports arithmetic throughput of one kernel over a fresh
// warm pool per iteration, so the timed region is compute plus the
// schedule's pin bookkeeping, not device traffic.
func benchMatMul(b *testing.B, kern Kernel) {
	const n = int64(256)
	const blockElems = 4096 // 64×64 tiles
	grid := int(n) / 64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := disk.NewDevice(blockElems)
		pool := buffer.New(dev, 4*grid*grid)
		a, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			b.Fatal(err)
		}
		m, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Fill(func(i, j int64) float64 { return float64((i + j) % 13) }); err != nil {
			b.Fatal(err)
		}
		if err := m.Fill(func(i, j int64) float64 { return float64((i * j) % 11) }); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := MatMulTiledKernel(pool, "c", a, m, 1, kern); err != nil {
			b.Fatal(err)
		}
	}
	flops := 2 * float64(n) * float64(n) * float64(n) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkMatMulNaive(b *testing.B) { benchMatMul(b, KernelNaive) }
func BenchmarkMatMulMicro(b *testing.B) { benchMatMul(b, KernelMicro) }
