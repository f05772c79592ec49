package catalog

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riot/internal/sparse"
	"riot/internal/wal"
)

// hugeVectorEntry is the wire header of a dense vector entry declaring
// maxEntryBlocks blocks of 64 elements, with no payload after it.
func hugeVectorEntry(flag byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 1)
	b = append(b, 'x', byte(KindVector), 0, 0, flag)
	b = le.AppendUint64(b, maxEntryBlocks*64) // rows
	b = le.AppendUint64(b, 1)                 // cols
	return le.AppendUint32(b, maxEntryBlocks)
}

// hugeManifest returns an 85-byte manifest whose one entry declares a
// 2^24-block vector in segment 2, and that segment: a bare 12-byte
// header with no payload at all.
func hugeManifest() (manifest, segment []byte) {
	le := binary.LittleEndian
	m := le.AppendUint32([]byte(Magic), 64)
	m = le.AppendUint64(m, 0) // durable LSN
	m = le.AppendUint64(m, 2) // segment generation
	m = le.AppendUint32(m, 1) // entry count
	m = append(m, hugeVectorEntry(1)...)
	m = le.AppendUint64(m, 0)  // publish LSN
	m = le.AppendUint64(m, 2)  // segment generation
	m = le.AppendUint64(m, 12) // offset: just past the segment header
	return m, le.AppendUint32([]byte(SegMagic), 64)
}

// TestShortPayloadRejectedBeforeAlloc: an entry declaring more payload
// than its segment or WAL record holds fails as a truncated payload
// before a single device block is allocated for it.
func TestShortPayloadRejectedBeforeAlloc(t *testing.T) {
	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		manifest, segment := hugeManifest()
		if len(manifest) != 85 {
			t.Fatalf("manifest is %d bytes, want 85", len(manifest))
		}
		if err := os.WriteFile(filepath.Join(dir, FileName), manifest, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segFileName(2)), segment, 0o666); err != nil {
			t.Fatal(err)
		}
		pool := newPool(t, 64, 16)
		if _, err := Open(dir, pool); err == nil || !strings.Contains(err.Error(), "truncated payload") {
			t.Fatalf("Open: err = %v, want truncated payload", err)
		}
		if got := pool.Device().Stats().AllocatedBlocks; got != 0 {
			t.Fatalf("Open allocated %d blocks for a payload that is not there", got)
		}
	})
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := wal.Open(filepath.Join(dir, wal.FileName), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, ack, err := l.Append(wal.RecPublish, hugeVectorEntry(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := ack(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		pool := newPool(t, 64, 16)
		if _, err := OpenWith(dir, pool, Options{WAL: WALAlways}); err == nil || !strings.Contains(err.Error(), "truncated payload") {
			t.Fatalf("Open: err = %v, want truncated payload", err)
		}
		if got := pool.Device().Stats().AllocatedBlocks; got != 0 {
			t.Fatalf("replay allocated %d blocks for a payload that is not there", got)
		}
	})
}

// FuzzCatalogOpen opens arbitrary (manifest, segment) pairs. Open must
// never panic, and no entry may allocate more device blocks than the
// segment holds: AllocatedBlocks stays within the manifest's declared
// entry count times the segment's size in blocks.
func FuzzCatalogOpen(f *testing.F) {
	const B = 64
	// Seed with a real checkpoint: x is republished after the first
	// checkpoint, so the second one moves it to segment 2 next to a
	// sparse entry and collects segment 1.
	dir := f.TempDir()
	pool := newPool(f, B, 64)
	cat, err := Open(dir, pool)
	if err != nil {
		f.Fatal(err)
	}
	put := func(val float64) {
		v := fillVector(f, pool, fmt.Sprintf("x-src-%g", val), 200, func(i int64) float64 { return val * float64(i) })
		if _, err := cat.PutVector("x", v); err != nil {
			f.Fatal(err)
		}
	}
	put(1)
	if err := cat.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	put(2)
	sv, err := sparse.NewVector(pool, "s-src", 300, func(lo, hi int64, buf []float64) error {
		for i := lo; i < hi; i++ {
			if i%101 == 0 {
				buf[i-lo] = float64(i)
			}
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := cat.PutSparseVector("s", sv); err != nil {
		f.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		f.Fatal(err)
	}
	segment, err := os.ReadFile(filepath.Join(dir, segFileName(2)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest, segment)
	hm, hs := hugeManifest()
	f.Add(hm, hs)

	f.Fuzz(func(t *testing.T, manifest, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), manifest, 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segFileName(2)), segment, 0o666); err != nil {
			t.Fatal(err)
		}
		pool := newPool(t, B, 16)
		_, _ = Open(dir, pool) // only panics and the allocation bound matter here
		var count int64
		if len(manifest) >= 32 {
			count = int64(binary.LittleEndian.Uint32(manifest[28:]))
		}
		bound := count * int64(len(segment)/(B*8))
		if got := pool.Device().Stats().AllocatedBlocks; got > bound {
			t.Fatalf("Open allocated %d blocks; %d entries over a %d-byte segment allow %d",
				got, count, len(segment), bound)
		}
	})
}
