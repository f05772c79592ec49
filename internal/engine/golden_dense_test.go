package engine

import (
	"math"
	"testing"
)

// TestDenseGoldenCounters pins the dense execution path against the
// pre-sparse seed, byte for byte: at Workers:1 with Readahead off, a
// mixed workload (Example 1's fused distance pipeline reduced to a sum,
// plus a square-tiled matmul fetch) must produce exactly the device and
// pool counters the engine produced before the sparse array kind was
// added. Dense sources never enter the zero-propagation rules and dense
// multiplies never touch the sparse kernels, so any drift here means
// the sparse subsystem leaked into the dense path.
//
// The expected values were captured from the engine at the commit
// preceding the sparse subsystem.
func TestDenseGoldenCounters(t *testing.T) {
	r := NewRIOT(1024, 1<<16, DefaultTimeModel)
	defer r.Close()
	n := int64(1 << 15)
	x, err := r.NewVector(n, func(i int64) float64 { return float64(i % 997) })
	if err != nil {
		t.Fatal(err)
	}
	y, err := r.NewVector(n, func(i int64) float64 { return float64(i % 991) })
	if err != nil {
		t.Fatal(err)
	}
	xm, _ := r.ArithScalar("-", x, 3, false)
	ym, _ := r.ArithScalar("-", y, 4, false)
	xs, _ := r.Arith("*", xm, xm)
	ys, _ := r.Arith("*", ym, ym)
	spl, _ := r.Arith("+", xs, ys)
	d, _ := r.Map("sqrt", spl)
	a, err := r.NewMatrix(96, 96, func(i, j int64) float64 { return float64((i*96 + j) % 13) })
	if err != nil {
		t.Fatal(err)
	}
	p, _ := r.MatMul(a, a)
	r.ResetStats()
	sum, err := r.Sum(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-2.371498764872644e+07) > 1e-6 {
		t.Errorf("sum = %v, want 2.371498764872644e+07", sum)
	}
	vals, err := r.Fetch(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3608, 3709, 3355, 3703, 3622}
	for i, w := range want {
		if vals[i] != w {
			t.Errorf("fetch[%d] = %v, want %v", i, vals[i], w)
		}
	}
	st := r.dev.Stats()
	// The write seq/rand split is not pinned: with the scheduler off,
	// FlushAll visits dirty frames in shard-map order, which Go
	// randomizes per process — the split wobbled in the seed too. Reads
	// and total writes are fully deterministic.
	if st.BlocksRead != 53 || st.SeqReads != 47 || st.RandReads != 6 ||
		st.BlocksWritten != 9 {
		t.Errorf("device counters read=%d (seq=%d rand=%d) written=%d, want read=53 (seq=47 rand=6) written=9",
			st.BlocksRead, st.SeqReads, st.RandReads, st.BlocksWritten)
	}
	// Hits are 94, not the seed's 98: the 5-element fetch pins the one
	// tile holding those elements once instead of once per element (one
	// hit instead of five). Nothing else moves.
	ps := r.Pool().Stats()
	if ps.Hits != 94 || ps.Misses != 135 || ps.Evictions != 71 || ps.Flushes != 82 {
		t.Errorf("pool counters hits/misses/evictions/flushes = %d/%d/%d/%d, want 94/135/71/82",
			ps.Hits, ps.Misses, ps.Evictions, ps.Flushes)
	}
}
