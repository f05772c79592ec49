package rescache

import (
	"fmt"
	"sync"
	"testing"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/disk"
)

// fillVector writes f(i) into every element.
func fillVector(t *testing.T, v *array.Vector, f func(i int64) float64) {
	t.Helper()
	for k := 0; k < v.Blocks(); k++ {
		c, err := v.PinChunkNew(k)
		if err != nil {
			t.Fatal(err)
		}
		d := c.Data()
		for i := range d {
			d[i] = f(c.Lo + int64(i))
		}
		c.MarkDirty()
		c.Release()
	}
}

func keyOf(b byte) Key {
	var k Key
	k[0] = b
	return k
}

// TestInstallAcquireRoundTrip: an installed vector comes back with the
// same values through an independent handle, and the copy is
// cache-owned (freeing the source does not disturb the cached copy).
func TestInstallAcquireRoundTrip(t *testing.T) {
	pool := buffer.NewSharded(disk.NewDevice(16), 64, 4)
	c := New(pool, 16*64)
	defer c.Close()

	src, err := array.NewVector(pool, "src", 100)
	if err != nil {
		t.Fatal(err)
	}
	fillVector(t, src, func(i int64) float64 { return float64(3 * i) })
	ok, err := c.InstallVector(keyOf(1), []string{"x"}, src)
	if err != nil || !ok {
		t.Fatalf("install: ok=%v err=%v", ok, err)
	}
	src.Free()

	h, hit := c.Acquire(keyOf(1))
	if !hit {
		t.Fatal("expected hit")
	}
	defer h.Release()
	for i := int64(0); i < 100; i++ {
		got, err := h.Vec().At(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(3*i) {
			t.Fatalf("elem %d: got %g want %g", i, got, float64(3*i))
		}
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Installs != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestQuotaEvictsLRU: installs past the block quota evict the
// least-recently-acquired entries, and an entry too big for the whole
// quota is rejected outright.
func TestQuotaEvictsLRU(t *testing.T) {
	be := 16
	pool := buffer.NewSharded(disk.NewDevice(be), 64, 4)
	// Quota of 8 blocks; each 2-block entry -> 4 fit.
	c := New(pool, int64(8*be))
	defer c.Close()

	mk := func(name string) *array.Vector {
		v, err := array.NewVector(pool, name, int64(2*be))
		if err != nil {
			t.Fatal(err)
		}
		fillVector(t, v, func(i int64) float64 { return 1 })
		return v
	}
	for i := byte(1); i <= 4; i++ {
		if ok, err := c.InstallVector(keyOf(i), nil, mk(fmt.Sprintf("s%d", i))); !ok || err != nil {
			t.Fatalf("install %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Touch entry 1 so entry 2 is the LRU victim.
	h, _ := c.Acquire(keyOf(1))
	h.Release()
	if ok, err := c.InstallVector(keyOf(5), nil, mk("s5")); !ok || err != nil {
		t.Fatalf("install 5: ok=%v err=%v", ok, err)
	}
	if _, hit := c.Acquire(keyOf(2)); hit {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if _, hit := c.Acquire(keyOf(1)); !hit {
		t.Fatal("recently-used entry 1 should have survived")
	}
	if st := c.Snapshot(); st.Evictions != 1 {
		t.Fatalf("evictions: %+v", st)
	}

	// 9 blocks can never fit an 8-block quota: rejected, not evicted.
	big, err := array.NewVector(pool, "big", int64(9*be))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.InstallVector(keyOf(9), nil, big); ok {
		t.Fatal("over-quota entry admitted")
	}
	if st := c.Snapshot(); st.Rejected == 0 {
		t.Fatalf("expected a rejected install: %+v", st)
	}
}

// TestEvictionSkipsReferencedEntries: an entry held by a reader is
// never evicted (its storage stays valid under the handle); if every
// resident entry is referenced, admission refuses the newcomer rather
// than unpinning anyone.
func TestEvictionSkipsReferencedEntries(t *testing.T) {
	be := 16
	pool := buffer.NewSharded(disk.NewDevice(be), 64, 4)
	c := New(pool, int64(4*be)) // room for exactly one 4-block entry
	defer c.Close()

	mk := func(name string) *array.Vector {
		v, err := array.NewVector(pool, name, int64(4*be))
		if err != nil {
			t.Fatal(err)
		}
		fillVector(t, v, func(i int64) float64 { return float64(i) })
		return v
	}
	if ok, err := c.InstallVector(keyOf(1), nil, mk("a")); !ok || err != nil {
		t.Fatalf("install: %v %v", ok, err)
	}
	h, hit := c.Acquire(keyOf(1))
	if !hit {
		t.Fatal("miss")
	}
	// The only resident entry is referenced: the newcomer must bounce.
	if ok, err := c.InstallVector(keyOf(2), nil, mk("b")); ok || err != nil {
		t.Fatalf("admission should refuse while all entries referenced: %v %v", ok, err)
	}
	// The held entry must still read correctly.
	if got, err := h.Vec().At(7); err != nil || got != 7 {
		t.Fatalf("held entry corrupted: %g %v", got, err)
	}
	h.Release()
	if ok, err := c.InstallVector(keyOf(2), nil, mk("b2")); !ok || err != nil {
		t.Fatalf("install after release: %v %v", ok, err)
	}
}

// TestInvalidateName: republication drops exactly the dependent
// entries; a reader holding a handle keeps valid storage until release.
func TestInvalidateName(t *testing.T) {
	be := 16
	pool := buffer.NewSharded(disk.NewDevice(be), 64, 4)
	c := New(pool, int64(32*be))
	defer c.Close()

	mk := func(name string) *array.Vector {
		v, err := array.NewVector(pool, name, int64(be))
		if err != nil {
			t.Fatal(err)
		}
		fillVector(t, v, func(i int64) float64 { return 42 })
		return v
	}
	c.InstallVector(keyOf(1), []string{"x"}, mk("a"))
	c.InstallVector(keyOf(2), []string{"x", "y"}, mk("b"))
	c.InstallVector(keyOf(3), []string{"y"}, mk("c"))

	h, _ := c.Acquire(keyOf(2)) // held across the invalidation
	c.InvalidateName("x")

	if _, hit := c.Acquire(keyOf(1)); hit {
		t.Fatal("entry 1 depends on x; should be gone")
	}
	if _, hit := c.Acquire(keyOf(2)); hit {
		t.Fatal("entry 2 depends on x; should be gone for new readers")
	}
	if _, hit3 := c.Acquire(keyOf(3)); !hit3 {
		t.Fatal("entry 3 does not depend on x; should survive")
	}
	// The old reader's view stays intact until it releases.
	if got, err := h.Vec().At(3); err != nil || got != 42 {
		t.Fatalf("held invalidated entry corrupted: %g %v", got, err)
	}
	h.Release()
	if st := c.Snapshot(); st.Invalidations != 2 {
		t.Fatalf("invalidations: %+v", st)
	}
}

// TestCloseFreesStorage: Close frees all cache-owned device extents.
func TestCloseFreesStorage(t *testing.T) {
	be := 16
	dev := disk.NewDevice(be)
	pool := buffer.NewSharded(dev, 64, 4)
	c := New(pool, int64(32*be))
	v, err := array.NewVector(pool, "s", int64(4*be))
	if err != nil {
		t.Fatal(err)
	}
	fillVector(t, v, func(i int64) float64 { return 1 })
	c.InstallVector(keyOf(1), nil, v)
	c.Close()
	for _, o := range dev.Owners() {
		if len(o) >= 8 && o[:8] == "rescache" {
			t.Fatalf("cache-owned extent %q leaked past Close", o)
		}
	}
	if _, hit := c.Acquire(keyOf(1)); hit {
		t.Fatal("closed cache served a hit")
	}
}

// TestConcurrentInstallAcquireInvalidate hammers one cache from many
// goroutines under -race: concurrent duplicate installs, acquires with
// value checks, invalidations, and clears must stay consistent and
// never free storage under a reader.
func TestConcurrentInstallAcquireInvalidate(t *testing.T) {
	be := 16
	pool := buffer.NewSharded(disk.NewDevice(be), 256, 4)
	c := New(pool, int64(8*be)) // tight quota: constant eviction pressure
	defer c.Close()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				kb := byte(i % 5)
				src, err := array.NewVector(pool, fmt.Sprintf("w%d.%d", w, i), int64(2*be))
				if err != nil {
					t.Error(err)
					return
				}
				fillVector(t, src, func(int64) float64 { return float64(kb) })
				if _, err := c.InstallVector(keyOf(kb), []string{fmt.Sprintf("n%d", kb)}, src); err != nil {
					t.Error(err)
					return
				}
				src.Free()
				if h, hit := c.Acquire(keyOf(kb)); hit {
					got, err := h.Vec().At(int64(i % (2 * be)))
					if err != nil || got != float64(kb) {
						t.Errorf("stale or corrupt read: key %d got %g err %v", kb, got, err)
					}
					h.Release()
				}
				switch i % 10 {
				case 3:
					c.InvalidateName(fmt.Sprintf("n%d", kb))
				case 7:
					c.Clear()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAcquireMissesUntilInstallFinishes: an admitted entry is in the
// table before its value is copied in, and Acquire must miss it until
// finishInstall marks it ready; a hit before then would read zeros.
func TestAcquireMissesUntilInstallFinishes(t *testing.T) {
	be := 16
	pool := buffer.NewSharded(disk.NewDevice(be), 64, 4)
	c := New(pool, int64(16*be))
	defer c.Close()

	src, err := array.NewVector(pool, "src", int64(3*be))
	if err != nil {
		t.Fatal(err)
	}
	fillVector(t, src, func(i int64) float64 { return float64(i + 1) })
	e, err := c.admit(keyOf(1), src.Blocks(), func(owner string) (any, error) {
		return array.NewVector(c.pool, owner, src.Len())
	})
	if e == nil || err != nil {
		t.Fatalf("admit: entry %v, err %v", e, err)
	}
	if h, hit := c.Acquire(keyOf(1)); hit {
		h.Release()
		t.Fatal("Acquire hit an entry whose copy has not landed")
	}
	if err := copyVector(src, e.vec); err != nil {
		t.Fatal(err)
	}
	c.finishInstall(e, []string{"x"})
	h, hit := c.Acquire(keyOf(1))
	if !hit {
		t.Fatal("Acquire missed a finished install")
	}
	defer h.Release()
	for i := int64(0); i < src.Len(); i++ {
		if got, _ := h.Vec().At(i); got != float64(i+1) {
			t.Fatalf("elem %d = %g, want %g", i, got, float64(i+1))
		}
	}
}
