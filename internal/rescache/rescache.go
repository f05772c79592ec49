// Package rescache is the shared, quota-metered result cache: it
// memoizes materialized intermediates across sessions, keyed by the
// canonical DAG hash (hash.go) so two sessions that force the same
// expression over the same published arrays share one stored copy.
//
// Storage lives in the shared device/pool like any catalog temp, but
// under the cache's own owner namespace ("rescache.<seq>") and its own
// buffer.Pool session view, so cached blocks are charged to a dedicated
// cache quota rather than to the session that happened to install them.
// Admission is quota-controlled: an entry that does not fit evicts
// LRU entries with no readers, and is skipped outright if the cache
// cannot make room. Invalidation rides the catalog's LWW version
// counter: when a leaf array is republished or deleted, every entry
// depending on it is dropped (entries still held by a reader are marked
// dead and freed on last release, so eviction never unpins a frame
// another session holds).
package rescache

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"riot/internal/algebra"
	"riot/internal/array"
	"riot/internal/buffer"
)

// Cache is a shared cross-session result cache. All methods are safe
// for concurrent use by any number of sessions.
type Cache struct {
	pool       *buffer.Pool // metered cache view of the shared pool
	blockElems int
	quota      int // stored-block budget (admission + eviction bound)

	mu      sync.Mutex
	entries map[Key]*entry
	byName  map[string]map[Key]*entry // leaf name -> dependent entries
	lru     *list.List                // front = most recently used
	leaves  map[any]LeafID            // backing store -> catalog identity
	used    int                       // stored blocks currently held
	seq     int64
	closed  bool

	hits, misses, installs   atomic.Int64
	evictions, invalidations atomic.Int64
	rejected                 atomic.Int64
}

type entry struct {
	key    Key
	deps   []string
	vec    *array.Vector
	mat    *array.Matrix
	blocks int
	refs   int
	dead   bool // invalidated/evicted while referenced; free on last release
	ready  bool // copy landed (finishInstall); Acquire misses until then
	elem   *list.Element
}

// Handle is a pinned reference to a cache entry. The backing array
// stays valid — immune to eviction and invalidation-frees — until
// Release is called. Holders must treat the array as read-only.
type Handle struct {
	c *Cache
	e *entry
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits          int64 // Acquire found a live entry
	Misses        int64 // Acquire found nothing
	Installs      int64 // entries admitted
	Evictions     int64 // entries dropped to make room
	Invalidations int64 // entries dropped by leaf republication/deletion
	Rejected      int64 // installs refused by admission control
	Entries       int64 // live entries right now
	Bytes         int64 // stored bytes right now
	QuotaBytes    int64 // the stored-byte budget
}

// New creates a cache over the shared pool with a stored-data budget of
// quotaElems float64 elements. The budget is rounded to whole device
// blocks and clamped so at least a few blocks fit; transient pins the
// cache takes while copying entries in are metered against a dedicated
// pool session view of the same size.
func New(pool *buffer.Pool, quotaElems int64) *Cache {
	be := pool.Device().BlockElems()
	quota := int(quotaElems / int64(be))
	if quota < 4 {
		quota = 4
	}
	pinQuota := quota
	if c := pool.Capacity(); pinQuota > c {
		pinQuota = c
	}
	return &Cache{
		pool:       pool.Session(pinQuota),
		blockElems: be,
		quota:      quota,
		entries:    make(map[Key]*entry),
		byName:     make(map[string]map[Key]*entry),
		lru:        list.New(),
		leaves:     make(map[any]LeafID),
	}
}

// RegisterLeaf records the catalog identity of a backing store (an
// *array.Vector, *array.Matrix, or sparse equivalent handed out by the
// catalog). DAGs whose leaves are all registered are cache-eligible;
// a session-local array that was never published keeps its DAG out of
// the cache entirely.
func (c *Cache) RegisterLeaf(store any, id LeafID) {
	if store == nil {
		return
	}
	c.mu.Lock()
	c.leaves[store] = id
	c.mu.Unlock()
}

// UnregisterLeaf drops a retired store from the leaf registry (its
// pointer may be reused once the storage is freed).
func (c *Cache) UnregisterLeaf(store any) {
	if store == nil {
		return
	}
	c.mu.Lock()
	delete(c.leaves, store)
	c.mu.Unlock()
}

// HashDAG computes canonical hashes for the DAG rooted at root, or nil
// if any leaf is not catalog-backed (making the DAG ineligible).
func (c *Cache) HashDAG(root *algebra.Node) *DAGHashes {
	if root == nil {
		return nil
	}
	return hashDAG(root, func(n *algebra.Node) (LeafID, bool) {
		var store any
		switch {
		case n.Vec != nil:
			store = n.Vec
		case n.Mat != nil:
			store = n.Mat
		case n.SVec != nil:
			store = n.SVec
		case n.SMat != nil:
			store = n.SMat
		default:
			return LeafID{}, false
		}
		c.mu.Lock()
		id, ok := c.leaves[store]
		c.mu.Unlock()
		return id, ok
	})
}

// Acquire looks up key and, on a hit, returns a handle that keeps the
// entry's storage alive until released. An entry whose install is still
// copying its value in is a miss.
func (c *Cache) Acquire(key Key) (*Handle, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || !e.ready || c.closed {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e.refs++
	c.lru.MoveToFront(e.elem)
	c.mu.Unlock()
	c.hits.Add(1)
	return &Handle{c: c, e: e}, true
}

// Vec returns the cached vector, or nil for a matrix entry.
func (h *Handle) Vec() *array.Vector { return h.e.vec }

// Mat returns the cached matrix, or nil for a vector entry.
func (h *Handle) Mat() *array.Matrix { return h.e.mat }

// Key returns the entry's canonical key.
func (h *Handle) Key() Key { return h.e.key }

// Release drops the handle's reference. If the entry was invalidated or
// evicted while referenced, the last release frees its storage.
func (h *Handle) Release() {
	c := h.c
	c.mu.Lock()
	h.e.refs--
	freeNow := h.e.dead && h.e.refs == 0
	c.mu.Unlock()
	if freeNow {
		freeEntry(h.e)
	}
}

// InstallVector copies src into cache-owned storage under key. deps are
// the published leaf names the result depends on (from DAGHashes.Deps).
// It reports whether the entry was admitted; a duplicate key (another
// session raced the same install) or refused admission are not errors.
func (c *Cache) InstallVector(key Key, deps []string, src *array.Vector) (bool, error) {
	e, err := c.admit(key, src.Blocks(), func(owner string) (any, error) {
		return array.NewVector(c.pool, owner, src.Len())
	})
	if e == nil || err != nil {
		return false, err
	}
	if err := copyVector(src, e.vec); err != nil {
		c.abortInstall(e)
		return false, err
	}
	c.finishInstall(e, deps)
	return true, nil
}

// InstallMatrix copies src into cache-owned storage under key, keeping
// its tile shape and linearization (see InstallVector).
func (c *Cache) InstallMatrix(key Key, deps []string, src *array.Matrix) (bool, error) {
	e, err := c.admit(key, src.Blocks(), func(owner string) (any, error) {
		return array.NewMatrix(c.pool, owner, src.Rows(), src.Cols(),
			array.Options{Shape: src.Shape(), Lin: src.Lin()})
	})
	if e == nil || err != nil {
		return false, err
	}
	if err := copyMatrix(src, e.mat); err != nil {
		c.abortInstall(e)
		return false, err
	}
	c.finishInstall(e, deps)
	return true, nil
}

// admit reserves quota for a new entry and allocates its storage. The
// entry enters the table immediately, not yet ready (so Acquire misses
// it and a racing install of the same key backs off), with a synthetic
// reference (refs pinned at 1) so a concurrent Clear marks it dead
// instead of freeing storage mid-copy; finishInstall/abortInstall drop
// that reference.
// Returns nil (no error) when admission refuses the entry.
func (c *Cache) admit(key Key, blocks int, alloc func(owner string) (any, error)) (*entry, error) {
	c.mu.Lock()
	if c.closed || blocks > c.quota {
		c.mu.Unlock()
		c.rejected.Add(1)
		return nil, nil
	}
	if _, dup := c.entries[key]; dup {
		c.mu.Unlock()
		return nil, nil
	}
	var victims []*entry
	for c.used+blocks > c.quota {
		v := c.evictLocked()
		if v == nil {
			// Everything still resident is held by a reader.
			c.mu.Unlock()
			for _, v := range victims {
				freeEntry(v)
			}
			c.rejected.Add(1)
			return nil, nil
		}
		victims = append(victims, v)
	}
	c.seq++
	owner := fmt.Sprintf("rescache.%d", c.seq)
	c.used += blocks
	c.mu.Unlock()
	for _, v := range victims {
		freeEntry(v)
	}

	store, err := alloc(owner)
	if err != nil {
		c.mu.Lock()
		c.used -= blocks
		c.mu.Unlock()
		return nil, err
	}
	e := &entry{key: key, blocks: blocks, refs: 1}
	switch s := store.(type) {
	case *array.Vector:
		e.vec = s
	case *array.Matrix:
		e.mat = s
	}
	c.mu.Lock()
	if c.closed {
		c.used -= blocks
		c.mu.Unlock()
		freeEntry(e)
		return nil, nil
	}
	if _, dup := c.entries[key]; dup {
		// Another session won the race while we allocated.
		c.used -= blocks
		c.mu.Unlock()
		freeEntry(e)
		return nil, nil
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()
	return e, nil
}

// finishInstall publishes a copied-in entry: marks it ready, records
// its invalidation deps and drops the synthetic install reference.
func (c *Cache) finishInstall(e *entry, deps []string) {
	c.mu.Lock()
	e.refs--
	if e.dead {
		freeNow := e.refs == 0
		c.mu.Unlock()
		if freeNow {
			freeEntry(e)
		}
		return
	}
	e.ready = true
	e.deps = deps
	for _, name := range deps {
		m := c.byName[name]
		if m == nil {
			m = make(map[Key]*entry)
			c.byName[name] = m
		}
		m[e.key] = e
	}
	c.mu.Unlock()
	c.installs.Add(1)
}

// abortInstall backs out an admitted entry whose copy failed.
func (c *Cache) abortInstall(e *entry) {
	c.mu.Lock()
	e.refs--
	if !e.dead {
		c.removeLocked(e)
		e.dead = true
	}
	freeNow := e.refs == 0
	c.mu.Unlock()
	if freeNow {
		freeEntry(e)
	}
}

// evictLocked drops the least-recently-used unreferenced entry and
// returns it for the caller to free outside the lock; nil if every
// entry is referenced. Callers hold c.mu.
func (c *Cache) evictLocked() *entry {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.refs == 0 {
			c.removeLocked(e)
			e.dead = true
			c.evictions.Add(1)
			return e
		}
	}
	return nil
}

// removeLocked unlinks an entry from the table, LRU list, and name
// index, and returns its quota. Callers hold c.mu. Storage is NOT
// freed here — the caller frees it outside the lock once refs==0.
func (c *Cache) removeLocked(e *entry) {
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	for _, name := range e.deps {
		if m := c.byName[name]; m != nil {
			delete(m, e.key)
			if len(m) == 0 {
				delete(c.byName, name)
			}
		}
	}
	c.used -= e.blocks
}

// InvalidateName drops every entry that depends on the published array
// name. Called on every LWW Publish that supersedes a version and on
// every Delete; entries still held by a reader are marked dead and
// freed on last release (the reader keyed on the old version, so its
// view stays correct — this only reclaims the space eagerly).
func (c *Cache) InvalidateName(name string) {
	c.mu.Lock()
	m := c.byName[name]
	var free []*entry
	n := 0
	for _, e := range m {
		c.removeLocked(e)
		e.dead = true
		n++
		if e.refs == 0 {
			free = append(free, e)
		}
	}
	c.mu.Unlock()
	if n > 0 {
		c.invalidations.Add(int64(n))
	}
	for _, e := range free {
		freeEntry(e)
	}
}

// Clear drops every entry (the \cache clear command). Entries held by
// readers are marked dead and freed on last release.
func (c *Cache) Clear() {
	c.mu.Lock()
	var free []*entry
	for _, e := range c.entries {
		c.removeLocked(e)
		e.dead = true
		if e.refs == 0 {
			free = append(free, e)
		}
	}
	c.mu.Unlock()
	for _, e := range free {
		freeEntry(e)
	}
}

// Close clears the cache and refuses further installs/acquires. Called
// from DB.Close after all sessions have closed, so no live handles
// remain and all storage is freed here.
func (c *Cache) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.Clear()
}

// Snapshot returns the cache's counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	entries := int64(len(c.entries))
	bytes := int64(c.used) * int64(c.blockElems) * 8
	quota := int64(c.quota) * int64(c.blockElems) * 8
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Installs:      c.installs.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Rejected:      c.rejected.Load(),
		Entries:       entries,
		Bytes:         bytes,
		QuotaBytes:    quota,
	}
}

// Describe renders one line per live entry (the \cache command),
// sorted by key for deterministic output.
func (c *Cache) Describe() []string {
	c.mu.Lock()
	lines := make([]string, 0, len(c.entries))
	for _, e := range c.entries {
		kind := "vec"
		if e.mat != nil {
			kind = "mat"
		}
		lines = append(lines, fmt.Sprintf("%s %s blocks=%d refs=%d deps=%v",
			e.key, kind, e.blocks, e.refs, e.deps))
	}
	c.mu.Unlock()
	sort.Strings(lines)
	return lines
}

// freeEntry releases an entry's device storage and pool residency.
func freeEntry(e *entry) {
	if e.vec != nil {
		e.vec.Free()
	}
	if e.mat != nil {
		e.mat.Free()
	}
}

// copyVector block-copies src into dst (same length, same block size).
func copyVector(src, dst *array.Vector) error {
	for k := 0; k < src.Blocks(); k++ {
		sc, err := src.PinChunk(k)
		if err != nil {
			return err
		}
		dc, err := dst.PinChunkNew(k)
		if err != nil {
			sc.Release()
			return err
		}
		copy(dc.Data(), sc.Data())
		dc.MarkDirty()
		dc.Release()
		sc.Release()
	}
	return nil
}

// copyMatrix tile-copies src into dst (same dims, shape, and order).
func copyMatrix(src, dst *array.Matrix) error {
	gr, gc := src.GridDims()
	for ti := 0; ti < gr; ti++ {
		for tj := 0; tj < gc; tj++ {
			st, err := src.PinTile(ti, tj)
			if err != nil {
				return err
			}
			dt, err := dst.PinTileNew(ti, tj)
			if err != nil {
				st.Release()
				return err
			}
			copy(dt.Data(), st.Data())
			dt.MarkDirty()
			dt.Release()
			st.Release()
		}
	}
	return nil
}
