package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riot/internal/wal"
)

// openWAL opens a catalog in WALAlways mode over a fresh pool.
func openWAL(t *testing.T, dir string, blockElems, frames int) *Catalog {
	t.Helper()
	cat, err := OpenWith(dir, newPool(t, blockElems, frames), Options{WAL: WALAlways})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestWALSurvivesWithoutCheckpoint is the point of the log: publishes
// and deletes acknowledged in one "process" are visible after a crash —
// the catalog is abandoned without Checkpoint or Close — because Open
// replays the WAL.
func TestWALSurvivesWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const B = 64
	cat := openWAL(t, dir, B, 64)
	pool := cat.pool
	v := fillVector(t, pool, "v", 300, func(i int64) float64 { return float64(2 * i) })
	if _, err := cat.PutVector("x", v); err != nil {
		t.Fatal(err)
	}
	m := fillMatrix(t, pool, "m", 20, 30, func(i, j int64) float64 { return float64(i - j) })
	if _, err := cat.PutMatrix("mat", m); err != nil {
		t.Fatal(err)
	}
	doomed := fillVector(t, pool, "d", 10, func(i int64) float64 { return 1 })
	if _, err := cat.PutVector("doomed", doomed); err != nil {
		t.Fatal(err)
	}
	if ok, err := cat.Delete("doomed"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	// No Checkpoint, no Close: simulate a crash by walking away.

	cat2 := openWAL(t, dir, B, 64)
	defer cat2.Close()
	if got := cat2.List(); len(got) != 2 || got[0] != "mat" || got[1] != "x" {
		t.Fatalf("List after replay = %v, want [mat x]", got)
	}
	e, _ := cat2.Get("x")
	for _, i := range []int64{0, 63, 64, 299} {
		if got, _ := e.Vec.At(i); got != float64(2*i) {
			t.Fatalf("replayed x[%d] = %g, want %g", i, got, float64(2*i))
		}
	}
	if e.LSN == 0 {
		t.Fatal("replayed entry has no LSN stamp")
	}
	me, _ := cat2.Get("mat")
	if got, _ := me.Mat.At(7, 11); got != -4 {
		t.Fatalf("replayed mat[7,11] = %g, want -4", got)
	}
	st, on := cat2.WALStats()
	if !on || st.Replayed != 4 {
		t.Fatalf("WALStats = %+v, %v; want 4 replayed records", st, on)
	}
}

// TestWALReplayIdempotent: records covered by the checkpoint are not
// re-applied on open; records after it are.
func TestWALReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	cat := openWAL(t, dir, 64, 64)
	a := fillVector(t, cat.pool, "a", 100, func(i int64) float64 { return float64(i) })
	if _, err := cat.PutVector("a", a); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b := fillVector(t, cat.pool, "b", 100, func(i int64) float64 { return float64(i + 7) })
	if _, err := cat.PutVector("b", b); err != nil {
		t.Fatal(err)
	}
	// Crash after the checkpoint: only b's record is in the WAL (the
	// checkpoint rotated a's away), and replay must apply exactly it.
	cat2 := openWAL(t, dir, 64, 64)
	defer cat2.Close()
	if got := cat2.List(); len(got) != 2 {
		t.Fatalf("List = %v", got)
	}
	st, _ := cat2.WALStats()
	if st.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (checkpointed records must not replay)", st.Replayed)
	}
	ea, _ := cat2.Get("a")
	eb, _ := cat2.Get("b")
	if got, _ := ea.Vec.At(50); got != 50 {
		t.Fatalf("a[50] = %g", got)
	}
	if got, _ := eb.Vec.At(50); got != 57 {
		t.Fatalf("b[50] = %g", got)
	}
}

// TestIncrementalCheckpoint: a second checkpoint only serializes entries
// published since the first; clean entries are referenced in their old
// segment, and segments no entry references are garbage-collected.
func TestIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cat := openWAL(t, dir, 64, 256)
	big := fillVector(t, cat.pool, "big", 5000, func(i int64) float64 { return float64(i) })
	if _, err := cat.PutVector("big", big); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seg1 := filepath.Join(dir, segFileName(1))
	fi1, err := os.Stat(seg1)
	if err != nil {
		t.Fatalf("first checkpoint wrote no segment: %v", err)
	}
	small := fillVector(t, cat.pool, "small", 10, func(i int64) float64 { return 3 })
	if _, err := cat.PutVector("small", small); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fi2, err := os.Stat(filepath.Join(dir, segFileName(2)))
	if err != nil {
		t.Fatalf("second checkpoint wrote no segment: %v", err)
	}
	if fi2.Size() >= fi1.Size() {
		t.Fatalf("incremental segment (%d bytes) not smaller than full one (%d): clean entries were rewritten",
			fi2.Size(), fi1.Size())
	}
	// big still lives in segment 1, which therefore must survive.
	if _, err := os.Stat(seg1); err != nil {
		t.Fatalf("segment 1 vanished while still referenced: %v", err)
	}
	// Republish big: segment 1 loses its last reference at the next
	// checkpoint and is GC'd.
	big2 := fillVector(t, cat.pool, "big2", 5000, func(i int64) float64 { return float64(-i) })
	if _, err := cat.PutVector("big", big2); err != nil {
		t.Fatal(err)
	}
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg1); !os.IsNotExist(err) {
		t.Fatalf("unreferenced segment 1 not garbage-collected (err=%v)", err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	cat2 := openWAL(t, dir, 64, 256)
	defer cat2.Close()
	eb, _ := cat2.Get("big")
	if got, _ := eb.Vec.At(123); got != -123 {
		t.Fatalf("big[123] = %g, want -123", got)
	}
	es, _ := cat2.Get("small")
	if got, _ := es.Vec.At(5); got != 3 {
		t.Fatalf("small[5] = %g, want 3", got)
	}
}

// TestWALOffDrainsStaleWAL: a WALOff open over a directory a WAL-mode
// process crashed in still sees the acknowledged publishes, and its
// next checkpoint absorbs them and removes the log.
func TestWALOffDrainsStaleWAL(t *testing.T) {
	dir := t.TempDir()
	cat := openWAL(t, dir, 64, 64)
	v := fillVector(t, cat.pool, "v", 100, func(i int64) float64 { return float64(i * i) })
	if _, err := cat.PutVector("x", v); err != nil {
		t.Fatal(err)
	}
	// Crash: no checkpoint, wal.riot holds the only copy.

	cat2, err := Open(dir, newPool(t, 64, 64)) // WALOff
	if err != nil {
		t.Fatal(err)
	}
	e, ok := cat2.Get("x")
	if !ok {
		t.Fatal("WALOff open dropped the crashed process's acknowledged publish")
	}
	if got, _ := e.Vec.At(9); got != 81 {
		t.Fatalf("x[9] = %g, want 81", got)
	}
	if _, on := cat2.WALStats(); on {
		t.Fatal("WALOff catalog reports an active WAL")
	}
	if err := cat2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.FileName)); !os.IsNotExist(err) {
		t.Fatalf("stale wal.riot not removed after checkpoint (err=%v)", err)
	}

	cat3, err := Open(dir, newPool(t, 64, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer cat3.Close()
	if e, ok := cat3.Get("x"); !ok {
		t.Fatal("x lost after WAL drain + checkpoint")
	} else if got, _ := e.Vec.At(10); got != 100 {
		t.Fatalf("x[10] = %g, want 100", got)
	}
}

// putConst publishes a 100-element vector of val under name.
func putConst(t *testing.T, cat *Catalog, name string, val float64) {
	t.Helper()
	v := fillVector(t, cat.pool, fmt.Sprintf("%s-src-%g", name, val), 100, func(int64) float64 { return val })
	if _, err := cat.PutVector(name, v); err != nil {
		t.Fatal(err)
	}
}

// checkConst requires that name reads val everywhere.
func checkConst(t *testing.T, cat *Catalog, name string, val float64) {
	t.Helper()
	e, ok := cat.Get(name)
	if !ok {
		t.Fatalf("%s lost", name)
	}
	for _, i := range []int64{0, 99} {
		if got, _ := e.Vec.At(i); got != val {
			t.Fatalf("%s[%d] = %g, want %g", name, i, got, val)
		}
	}
}

// TestModeSwitchKeepsLatestValues moves one directory WAL → off → WAL
// with crashes in between. The WAL-off checkpoint leaves a manifest
// covering LSNs no log holds any more, so the next WAL-mode open must
// continue its fresh log past them: a publish that reused a covered
// LSN would be skipped by the next replay.
func TestModeSwitchKeepsLatestValues(t *testing.T) {
	dir := t.TempDir()
	cat := openWAL(t, dir, 64, 64)
	putConst(t, cat, "a", 1)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	putConst(t, cat, "b", 2)
	// Crash: b lives only in the log.

	off, err := Open(dir, newPool(t, 64, 64))
	if err != nil {
		t.Fatal(err)
	}
	putConst(t, off, "c", 3)
	putConst(t, off, "a", 4)
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}

	cat = openWAL(t, dir, 64, 64)
	putConst(t, cat, "d", 5)
	// Crash: d lives only in the log.

	cat = openWAL(t, dir, 64, 64)
	defer cat.Close()
	if got := cat.List(); len(got) != 4 {
		t.Fatalf("List = %v, want [a b c d]", got)
	}
	for name, val := range map[string]float64{"a": 4, "b": 2, "c": 3, "d": 5} {
		checkConst(t, cat, name, val)
	}
}

// TestWALOffCrashWindow: a crash between a WAL-off checkpoint's
// manifest rename and its removal of the drained wal.riot leaves both
// files behind. The manifest covers every record of that log, so a
// reopen in either mode skips them all and the WAL-off republish wins.
func TestWALOffCrashWindow(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, wal.FileName)
	cat := openWAL(t, dir, 64, 64)
	putConst(t, cat, "x", 1)
	if err := cat.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	putConst(t, cat, "x", 2)
	// Crash: the log starts past LSN 1 and holds x = 2.
	drained, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	off, err := Open(dir, newPool(t, 64, 64))
	if err != nil {
		t.Fatal(err)
	}
	checkConst(t, off, "x", 2)
	putConst(t, off, "x", 3)
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatalf("drained wal.riot not removed (err=%v)", err)
	}

	for _, mode := range []WALMode{WALOff, WALAlways} {
		// The removal never happened.
		if err := os.WriteFile(walPath, drained, 0o666); err != nil {
			t.Fatal(err)
		}
		cat, err := OpenWith(dir, newPool(t, 64, 64), Options{WAL: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		checkConst(t, cat, "x", 3)
		if err := cat.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALInjectorFailsPublish: an injected append fault surfaces as a
// publish error, and the entry does not survive a reopen.
func TestWALInjectorFailsPublish(t *testing.T) {
	dir := t.TempDir()
	inj := func(i int, frame []byte) ([]byte, error) {
		if i == 1 {
			return frame[:3], nil // short write on the second append
		}
		return frame, nil
	}
	cat, err := OpenWith(dir, newPool(t, 64, 64), Options{WAL: WALAlways, WALInjector: inj})
	if err != nil {
		t.Fatal(err)
	}
	ok1 := fillVector(t, cat.pool, "ok", 10, func(i int64) float64 { return 1 })
	if _, err := cat.PutVector("ok", ok1); err != nil {
		t.Fatal(err)
	}
	bad := fillVector(t, cat.pool, "bad", 10, func(i int64) float64 { return 2 })
	if _, err := cat.PutVector("bad", bad); err == nil {
		t.Fatal("publish with a short-written WAL append reported success")
	}
	// Crash without checkpoint: only the acknowledged publish survives.
	cat2 := openWAL(t, dir, 64, 64)
	defer cat2.Close()
	if _, ok := cat2.Get("ok"); !ok {
		t.Fatal("acknowledged publish lost")
	}
	if _, ok := cat2.Get("bad"); ok {
		t.Fatal("failed publish resurrected by replay")
	}
}

// TestCorruptCatalogTable (satellite): damaged catalog files must fail
// Open with a descriptive error — never a panic, never silent success.
func TestCorruptCatalogTable(t *testing.T) {
	// Build one good checkpoint to mutilate.
	srcDir := t.TempDir()
	pool := newPool(t, 64, 64)
	cat, err := Open(srcDir, pool)
	if err != nil {
		t.Fatal(err)
	}
	v := fillVector(t, pool, "v", 200, func(i int64) float64 { return float64(i) })
	if _, err := cat.PutVector("x", v); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(srcDir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(srcDir, segFileName(1)))
	if err != nil {
		t.Fatal(err)
	}

	// Each case damages one of the two files and keeps the other good.
	cases := []struct {
		name              string
		manifest, segment []byte
		wantSub           string
	}{
		{
			name:     "truncated header",
			manifest: good[:10], // cut inside the block-size field
			segment:  seg,
			wantSub:  "loading",
		},
		{
			name:     "bad magic",
			manifest: append([]byte("NOTACAT!"), good[8:]...),
			segment:  seg,
			wantSub:  "bad magic",
		},
		{
			name: "payload shorter than declared extent",
			// Chop half a block off the segment: the entry's metadata
			// declares more payload than the file holds.
			manifest: good,
			segment:  seg[:len(seg)-32],
			wantSub:  "truncated payload",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, FileName), tc.manifest, 0o666); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segFileName(1)), tc.segment, 0o666); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir, newPool(t, 64, 64)) // must not panic
			if err == nil {
				t.Fatal("Open accepted a corrupt catalog")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
