package catalog

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/disk"
	"riot/internal/sparse"
)

func newPool(t testing.TB, blockElems int, frames int) *buffer.Pool {
	t.Helper()
	return buffer.NewSharded(disk.NewDevice(blockElems), frames, 4)
}

func fillVector(t testing.TB, pool *buffer.Pool, name string, n int64, f func(int64) float64) *array.Vector {
	t.Helper()
	v, err := array.NewVector(pool, name, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Fill(f); err != nil {
		t.Fatal(err)
	}
	return v
}

func fillMatrix(t *testing.T, pool *buffer.Pool, name string, r, c int64, f func(i, j int64) float64) *array.Matrix {
	t.Helper()
	m, err := array.NewMatrix(pool, name, r, c, array.Options{Shape: array.SquareTiles, Lin: array.ZOrder})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fill(f); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRestartRoundTrip is the acceptance criterion: publish named
// arrays, checkpoint, then open the directory over a fresh device (a new
// process) and read back identical values.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const B = 64

	pool := newPool(t, B, 64)
	cat, err := Open(dir, pool)
	if err != nil {
		t.Fatal(err)
	}
	src := fillVector(t, pool, "src", 1000, func(i int64) float64 { return float64(3*i + 1) })
	if _, err := cat.PutVector("x", src); err != nil {
		t.Fatal(err)
	}
	msrc := fillMatrix(t, pool, "msrc", 50, 37, func(i, j int64) float64 { return float64(i*100 + j) })
	if _, err := cat.PutMatrix("m", msrc); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new device, pool, and catalog over the same dir.
	pool2 := newPool(t, B, 64)
	cat2, err := Open(dir, pool2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat2.List(); len(got) != 2 || got[0] != "m" || got[1] != "x" {
		t.Fatalf("List() = %v, want [m x]", got)
	}
	e, ok := cat2.Get("x")
	if !ok || e.Kind != KindVector {
		t.Fatalf("Get(x) = %+v, %v", e, ok)
	}
	if e.Vec.Len() != 1000 {
		t.Fatalf("restored length %d, want 1000", e.Vec.Len())
	}
	for _, i := range []int64{0, 1, 63, 64, 999} {
		got, err := e.Vec.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(3*i + 1); got != want {
			t.Fatalf("x[%d] = %g, want %g", i, got, want)
		}
	}
	me, ok := cat2.Get("m")
	if !ok || me.Kind != KindMatrix {
		t.Fatalf("Get(m) = %+v, %v", me, ok)
	}
	if me.Mat.Rows() != 50 || me.Mat.Cols() != 37 {
		t.Fatalf("restored dims %dx%d, want 50x37", me.Mat.Rows(), me.Mat.Cols())
	}
	if me.Mat.Lin() != array.ZOrder {
		t.Fatalf("restored linearization %v, want zorder", me.Mat.Lin())
	}
	for i := int64(0); i < 50; i += 7 {
		for j := int64(0); j < 37; j += 5 {
			got, err := me.Mat.At(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(i*100 + j); got != want {
				t.Fatalf("m[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

// TestLastWriterWins: republishing a name replaces it for new readers
// while old handles stay readable.
func TestLastWriterWins(t *testing.T) {
	pool := newPool(t, 64, 64)
	cat, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	v1 := fillVector(t, pool, "v1", 10, func(i int64) float64 { return 1 })
	e1, err := cat.PutVector("x", v1)
	if err != nil {
		t.Fatal(err)
	}
	v2 := fillVector(t, pool, "v2", 10, func(i int64) float64 { return 2 })
	if _, err := cat.PutVector("x", v2); err != nil {
		t.Fatal(err)
	}
	cur, ok := cat.Get("x")
	if !ok {
		t.Fatal("x vanished")
	}
	if got, _ := cur.Vec.At(0); got != 2 {
		t.Fatalf("current x[0] = %g, want 2 (last writer)", got)
	}
	// The superseded handle still reads its snapshot.
	if got, _ := e1.Vec.At(0); got != 1 {
		t.Fatalf("old handle x[0] = %g, want 1", got)
	}
	if cur.Version <= e1.Version {
		t.Fatalf("version did not advance: %d then %d", e1.Version, cur.Version)
	}
}

func TestDelete(t *testing.T) {
	pool := newPool(t, 64, 64)
	cat, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	v := fillVector(t, pool, "v", 5, func(i int64) float64 { return float64(i) })
	if _, err := cat.PutVector("x", v); err != nil {
		t.Fatal(err)
	}
	if ok, err := cat.Delete("x"); err != nil || !ok {
		t.Fatalf("Delete(x) = %v, %v", ok, err)
	}
	if ok, err := cat.Delete("x"); err != nil || ok {
		t.Fatalf("second Delete(x) = %v, %v", ok, err)
	}
	if _, ok := cat.Get("x"); ok {
		t.Fatal("x still visible after delete")
	}
}

// TestCheckpointCapturesDirtyFrames: blocks still dirty in the pool (the
// publish copy is never explicitly flushed) must round-trip.
func TestCheckpointCapturesDirtyFrames(t *testing.T) {
	dir := t.TempDir()
	pool := newPool(t, 64, 1024) // big pool: nothing evicted, all dirty
	cat, err := Open(dir, pool)
	if err != nil {
		t.Fatal(err)
	}
	src := fillVector(t, pool, "src", 500, func(i int64) float64 { return float64(i) * 0.5 })
	if _, err := cat.PutVector("x", src); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pool2 := newPool(t, 64, 64)
	cat2, err := Open(dir, pool2)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := cat2.Get("x")
	if got, _ := e.Vec.At(499); got != 249.5 {
		t.Fatalf("x[499] = %g, want 249.5", got)
	}
}

func TestRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)

	// Wrong magic.
	if err := os.WriteFile(path, []byte("NOTRIOT!junkjunk"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, newPool(t, 64, 16)); err == nil {
		t.Fatal("Open accepted a file with bad magic")
	}

	// Right magic, truncated payload: the segment beside the manifest
	// ends before the entry's declared extent does.
	pool := newPool(t, 64, 64)
	cat, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	v := fillVector(t, pool, "v", 100, func(i int64) float64 { return float64(i) })
	if _, err := cat.PutVector("x", v); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(cat.Dir(), FileName))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(cat.Dir(), segFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, segFileName(1))
	if err := os.WriteFile(path, whole, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, seg[:len(seg)-16], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, newPool(t, 64, 16)); err == nil || !strings.Contains(err.Error(), "truncated payload") {
		t.Fatalf("Open of a truncated segment: err = %v, want truncated payload", err)
	}

	// Block-size mismatch.
	if err := os.WriteFile(segPath, seg, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, newPool(t, 128, 16)); err == nil || !strings.Contains(err.Error(), "block size") {
		t.Fatalf("Open with a mismatched block size: err = %v", err)
	}
}

// TestConcurrentPutGet hammers the catalog from many goroutines; run
// under -race.
func TestConcurrentPutGet(t *testing.T) {
	pool := newPool(t, 64, 256)
	cat, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				name := string(rune('a' + w))
				src, err := array.NewVector(pool, name+"-src", 64)
				if err != nil {
					t.Error(err)
					return
				}
				val := float64(w*100 + round)
				if err := src.Fill(func(int64) float64 { return val }); err != nil {
					t.Error(err)
					return
				}
				if _, err := cat.PutVector("shared", src); err != nil {
					t.Error(err)
					return
				}
				if e, ok := cat.Get("shared"); ok {
					if _, err := e.Vec.At(0); err != nil {
						t.Errorf("read of live entry failed: %v", err)
						return
					}
				}
				src.Free()
			}
		}(w)
	}
	wg.Wait()
	if _, ok := cat.Get("shared"); !ok {
		t.Fatal("shared vanished after concurrent puts")
	}
}

// TestSparseRestartRoundTrip publishes sparse entries — a banded sparse
// matrix and a mostly-empty sparse vector — checkpoints, and reopens the
// directory over a fresh device. Values AND density statistics (nnz,
// per-tile directory, block count) must survive: an all-zero tile still
// costs no block after restart.
func TestSparseRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const B = 64

	pool := newPool(t, B, 64)
	cat, err := Open(dir, pool)
	if err != nil {
		t.Fatal(err)
	}
	msrc := fillMatrix(t, pool, "msrc", 60, 60, func(i, j int64) float64 {
		d := i - j
		if d < 0 {
			d = -d
		}
		if d <= 1 {
			return float64(i + j + 1)
		}
		return 0
	})
	sm, err := sparse.FromDense(pool, "sm", msrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.PutSparseMatrix("adj", sm); err != nil {
		t.Fatal(err)
	}
	sv, err := sparse.NewVector(pool, "svec", 500, func(lo, hi int64, buf []float64) error {
		for i := lo; i < hi; i++ {
			if i%97 == 0 {
				buf[i-lo] = float64(i + 1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.PutSparseVector("picks", sv); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	pool2 := newPool(t, B, 64)
	cat2, err := Open(dir, pool2)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := cat2.Get("adj")
	if !ok || e.Kind != KindSparseMatrix {
		t.Fatalf("adj restored as %+v", e)
	}
	if e.SMat.NNZ() != sm.NNZ() || e.SMat.Blocks() != sm.Blocks() {
		t.Fatalf("adj stats: nnz=%d blocks=%d, want %d/%d", e.SMat.NNZ(), e.SMat.Blocks(), sm.NNZ(), sm.Blocks())
	}
	gr, gc := sm.GridDims()
	for ti := 0; ti < gr; ti++ {
		for tj := 0; tj < gc; tj++ {
			if e.SMat.TileNNZ(ti, tj) != sm.TileNNZ(ti, tj) {
				t.Fatalf("tile (%d,%d) nnz drifted", ti, tj)
			}
		}
	}
	for i := int64(0); i < 60; i++ {
		for j := int64(0); j < 60; j++ {
			want, _ := msrc.At(i, j)
			got, err := e.SMat.At(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("adj (%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	ev, ok := cat2.Get("picks")
	if !ok || ev.Kind != KindSparseVector {
		t.Fatalf("picks restored as %+v", ev)
	}
	if ev.SVec.NNZ() != sv.NNZ() || ev.SVec.Blocks() != sv.Blocks() {
		t.Fatalf("picks stats: nnz=%d blocks=%d, want %d/%d", ev.SVec.NNZ(), ev.SVec.Blocks(), sv.NNZ(), sv.Blocks())
	}
	for i := int64(0); i < 500; i++ {
		want, _ := sv.At(i)
		got, err := ev.SVec.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("picks [%d] = %g, want %g", i, got, want)
		}
	}
}
