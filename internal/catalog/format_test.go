package catalog

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"riot/internal/sparse"
	"riot/internal/wal"
)

// TestOnDiskBytesPinned publishes a fixed sequence under WALAlways —
// dense vector, dense matrix, sparse matrix, sparse vector, a republish
// and a delete — checkpoints, publishes once more, and pins the SHA-256
// of the manifest, the segment and the log. Any change to the byte
// layout of the catalog files or of WAL records fails here, so a
// rewrite of the encoders must keep every on-disk byte.
func TestOnDiskBytesPinned(t *testing.T) {
	const B = 64
	dir := t.TempDir()
	pool := newPool(t, B, 64)
	cat, err := OpenWith(dir, pool, Options{WAL: WALAlways})
	if err != nil {
		t.Fatal(err)
	}
	must := func(_ *Entry, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.PutVector("v", fillVector(t, pool, "v-src", 200, func(i int64) float64 { return float64(i)*0.5 - 3 })))
	must(cat.PutMatrix("m", fillMatrix(t, pool, "m-src", 20, 30, func(i, j int64) float64 { return float64(i*100 + j) })))
	band := fillMatrix(t, pool, "sm-dense", 60, 60, func(i, j int64) float64 {
		if d := i - j; d >= -1 && d <= 1 {
			return float64(i+j) + 0.25
		}
		return 0
	})
	sm, err := sparse.FromDense(pool, "sm-src", band)
	if err != nil {
		t.Fatal(err)
	}
	must(cat.PutSparseMatrix("sm", sm))
	sv, err := sparse.NewVector(pool, "sv-src", 300, func(lo, hi int64, buf []float64) error {
		for i := lo; i < hi; i++ {
			if i%101 == 0 {
				buf[i-lo] = -float64(i + 1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	must(cat.PutSparseVector("sv", sv))
	must(cat.PutVector("v", fillVector(t, pool, "v-src2", 130, func(i int64) float64 { return 1e300 / float64(i+1) })))
	if ok, err := cat.Delete("m"); !ok || err != nil {
		t.Fatalf("Delete(m) = %v, %v", ok, err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	must(cat.PutVector("w", fillVector(t, pool, "w-src", 70, func(i int64) float64 { return float64(-i) })))

	want := map[string]string{
		FileName:       "006d942ebc46a6a67791d96d19bae3069fad94a515d41828a88e293260369707",
		segFileName(1): "93acdbd931eaf35b1ac0d4f10a2b701d9a2b3c654e04fc900a9062daf0dac70c",
		wal.FileName:   "44df6a421f29afc15aeb51b0193ad28d7cdeac314fc0f483e42b9f48a35cfb5b",
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(data)
		if got := hex.EncodeToString(h[:]); got != sum {
			t.Errorf("%s: sha256 %s (%d bytes), want %s", name, got, len(data), sum)
		}
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
}
