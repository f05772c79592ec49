// Package buffer implements a pinning buffer pool over a simulated disk
// device. The pool's frame budget is the paper's "available memory M":
// a pool of capacity M/B frames can hold M scalar numbers at once, and
// any access beyond that evicts via LRU, charging real device I/O.
//
// RIOT's out-of-core kernels (internal/linalg), the array store
// (internal/array), and the relational storage layer (internal/rstore)
// all draw frames from a pool, so "how much memory an algorithm uses" is
// an enforced budget rather than an honour system.
//
// # Concurrency
//
// The pool is safe for concurrent use. It is partitioned into a power-of
// -two number of lock-striped shards; a block's shard is a pure function
// of its BlockID, so a frame lives in exactly one shard for its whole
// lifetime — in particular, a pinned frame never moves across shards
// (tests assert this invariant). Each shard has its own mutex and LRU
// list; the frame budget is global, enforced with an atomic residency
// counter, so a burst of activity in one shard may evict frames from
// another rather than fail while the pool as a whole is under budget.
// Counters are atomics, so Stats is safe to read concurrently.
//
// Concurrent Pins of the same absent block collapse into a single device
// read: the first pinner inserts a frame and loads it while later
// pinners wait on the frame's ready channel (they count as hits — they
// caused no device I/O).
//
// Callers that write through Frame.Data must coordinate among
// themselves: the pool guarantees that a pinned frame is stable and
// never evicted, but two writers mutating the same frame's payload
// concurrently are a data race in the caller. RIOT's parallel executors
// partition output blocks across workers so each output frame has
// exactly one writer; input frames are shared read-only.
//
// A single-shard pool driven by one goroutine behaves exactly like the
// original sequential pool: same hit/miss/eviction/flush counts in the
// same order. This is what makes Workers=1 runs reproduce the paper's
// deterministic I/O measurements.
//
// # I/O scheduler (readahead, elevator write-back)
//
// SetReadahead enables an I/O scheduler between the pool and the device,
// off by default so the seed's exact I/O counters are preserved:
//
//   - Prefetch(ids) is an explicit hint: the named blocks are loaded
//     asynchronously, off the caller's goroutine, through the same
//     singleflight frame path as Pin, and parked unpinned on the LRU.
//     Contiguous runs are read with one vectored device request, so they
//     charge one seek plus sequential transfers.
//   - Automatic sequential readahead watches the Pin stream; two
//     consecutive block IDs trigger prefetch of the next window blocks,
//     and the window doubles on every further sequential access (up to a
//     clamp), the classic adaptive readahead policy.
//   - Eviction of a dirty frame flushes a batch of dirty frames sorted
//     by BlockID (elevator write-back) via one vectored write, instead of
//     one random write per eviction. FlushAll likewise writes in sorted
//     batches when the scheduler is on.
//
// Prefetched frames never exceed the global frame budget: a prefetch
// that cannot claim a free or evictable frame is dropped (it is a hint),
// and a real Pin that finds the budget exhausted drains in-flight
// prefetches — which are unpinned and evictable the moment they land —
// and retries, so readahead can never fail an algorithm that stays
// within its budget. Stats reports Prefetched / PrefetchHits /
// WastedPrefetch so ablations can see whether readahead paid off.
package buffer

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"riot/internal/disk"
)

// Frame is a pinned in-memory copy of one disk block. The Data slice is
// valid until Unpin; writers must call MarkDirty so the frame is flushed
// on eviction.
type Frame struct {
	id   disk.BlockID
	Data []float64
	// pins and elem are guarded by the owning shard's mutex.
	pins int
	elem *list.Element
	// dirty is atomic: MarkDirty is called by pinners without the shard
	// lock, while eviction and FlushAll read it under the lock.
	dirty atomic.Bool
	// ready is closed once Data holds the block contents. Concurrent
	// pinners of a block being loaded wait on it; loadErr is set before
	// the close if the device read failed.
	ready   chan struct{}
	loadErr error
	// loading marks a frame whose device read is still in flight on a
	// prefetch goroutine; such frames are in the shard map (so Pins
	// collapse onto them) but not on the LRU (so eviction skips them).
	// doomed is set by Invalidate/DropAll racing an in-flight load: the
	// prefetcher discards the frame on completion instead of parking it.
	// prefetched marks a frame loaded by the scheduler and not yet used
	// by any Pin; it feeds the PrefetchHits / WastedPrefetch counters.
	// hinted distinguishes an explicit Prefetch claim from one made by
	// the automatic detector: consuming a detector frame keeps the
	// detector running ahead, consuming a hinted frame does not (the
	// hinter will hint again). All four are guarded by the owning
	// shard's mutex.
	loading    bool
	doomed     bool
	prefetched bool
	hinted     bool
}

// ID returns the disk block this frame caches.
func (f *Frame) ID() disk.BlockID { return f.id }

// MarkDirty records that Data has been modified and must be written back.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// Stats counts buffer pool events.
type Stats struct {
	Hits      int64 // requests satisfied without device I/O
	Misses    int64 // requests that read the block from the device
	Evictions int64 // frames dropped to make room
	Flushes   int64 // dirty frames written back

	// Scheduler counters (all zero while readahead is off).
	Prefetched     int64 // blocks loaded by the prefetcher
	PrefetchHits   int64 // pins served from a prefetched frame
	WastedPrefetch int64 // prefetched frames evicted or dropped unused
}

// PrefetchHitRate returns the fraction of prefetched blocks that a Pin
// actually consumed (0 when nothing was prefetched).
func (s Stats) PrefetchHitRate() float64 {
	if s.Prefetched == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(s.Prefetched)
}

// String renders the counters in one line; scheduler counters appear
// only when the prefetcher did any work.
func (s Stats) String() string {
	out := fmt.Sprintf("hits=%d misses=%d evictions=%d flushes=%d",
		s.Hits, s.Misses, s.Evictions, s.Flushes)
	if s.Prefetched > 0 || s.WastedPrefetch > 0 {
		out += fmt.Sprintf(" prefetched=%d prefetch-hits=%d (%.0f%%) wasted=%d",
			s.Prefetched, s.PrefetchHits, 100*s.PrefetchHitRate(), s.WastedPrefetch)
	}
	return out
}

// shard is one lock stripe of the pool: a map of resident frames plus an
// LRU list of the unpinned ones.
type shard struct {
	mu     sync.Mutex
	frames map[disk.BlockID]*Frame
	lru    *list.List // unpinned frames, front = least recently used
}

// Pool is a handle to a fixed-capacity buffer pool with LRU replacement
// and pinning, sharded for concurrent access (see the package comment).
// A Pool is a view: the root view returned by New/NewSharded owns no
// per-session state, and Session derives quota'd views that share every
// frame, shard, and counter with the root while metering their own pins.
type Pool struct {
	*core
	acct *Account
}

// Account meters one session's pinned frames against a quota. It is
// shared by every array and executor handle the session creates, so the
// session's concurrently pinned frames — inputs, outputs, temporaries —
// are counted as one budget no matter which goroutine pins them.
type Account struct {
	quota  int
	pinned atomic.Int64
	peak   atomic.Int64
}

// Quota returns the session's pin budget in frames.
func (a *Account) Quota() int { return a.quota }

// Pinned returns the session's currently pinned frame count.
func (a *Account) Pinned() int { return int(a.pinned.Load()) }

// Peak returns the high-water mark of concurrently pinned frames —
// the number the quota tests compare against the quota.
func (a *Account) Peak() int { return int(a.peak.Load()) }

// charge reserves one pin against the quota.
func (a *Account) charge() error {
	n := a.pinned.Add(1)
	if int(n) > a.quota {
		a.pinned.Add(-1)
		return fmt.Errorf("buffer: session pin quota exceeded (%d frames)", a.quota)
	}
	for {
		peak := a.peak.Load()
		if n <= peak || a.peak.CompareAndSwap(peak, n) {
			return nil
		}
	}
}

// release returns one pin to the quota.
func (a *Account) release() { a.pinned.Add(-1) }

// MinSessionQuota is the smallest useful session quota: every out-of-core
// algorithm in this repo needs at least three simultaneously pinned
// frames (two inputs and an output).
const MinSessionQuota = 3

// Session derives a quota'd view of the pool: the returned Pool shares
// every frame, shard, and statistic with p, but its Pins are charged
// against a fresh Account and refused beyond quota frames, and its
// Capacity/MemoryElems report the quota so kernels and planners size
// their working sets inside the session's share. The quota is clamped to
// [MinSessionQuota, pool capacity].
func (p *Pool) Session(quota int) *Pool {
	if quota < MinSessionQuota {
		quota = MinSessionQuota
	}
	if quota > p.core.capacity {
		quota = p.core.capacity
	}
	return &Pool{core: p.core, acct: &Account{quota: quota}}
}

// Account returns the view's pin account (nil on the root view).
func (p *Pool) Account() *Account { return p.acct }

// Root returns the unmetered root view of the pool: same shared core, no
// session account. Shared system structures (the catalog) pin through it
// so their residency is not charged to whichever session touched them.
func (p *Pool) Root() *Pool { return &Pool{core: p.core} }

// core is the shared state behind every view of one buffer pool.
type core struct {
	dev      *disk.Device
	capacity int // frames, global across shards
	shards   []*shard
	mask     uint64 // len(shards)-1; len(shards) is a power of two
	resident atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	flushes   atomic.Int64

	// I/O scheduler state (see the package comment). raEnabled gates
	// every scheduler code path so the disabled pool is byte-for-byte
	// the seed pool.
	raEnabled      atomic.Bool
	raCfg          ReadaheadConfig
	ra             raState
	drain          drainGroup
	inflight       atomic.Int64 // prefetch batches currently running
	prefetched     atomic.Int64
	prefetchHits   atomic.Int64
	wastedPrefetch atomic.Int64
}

// drainGroup tracks in-flight prefetch batches. It is a WaitGroup whose
// Add and Wait may race freely: new batches may start while a drainer is
// waiting (the drainer observes some zero crossing, which is all the
// makeRoom retry needs).
type drainGroup struct {
	mu   sync.Mutex
	cond sync.Cond
	n    int
}

func (g *drainGroup) add() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func (g *drainGroup) done() {
	g.mu.Lock()
	g.n--
	if g.n == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

func (g *drainGroup) wait() {
	g.mu.Lock()
	for g.n > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// ReadaheadConfig tunes the I/O scheduler. The zero value of each field
// selects its default.
type ReadaheadConfig struct {
	// Enabled turns the scheduler on: explicit Prefetch hints, automatic
	// sequential readahead, and elevator write-back.
	Enabled bool
	// MinWindow is the readahead window (blocks) when a sequential run
	// is first detected. Default 4.
	MinWindow int
	// MaxWindow clamps the adaptive window. Default 64 divided by the
	// shard count (shards approximate concurrent streams), and never
	// more than capacity/(2·shards), so all streams' readahead together
	// cannot flush the working set.
	MaxWindow int
	// FlushBatch is how many dirty frames one eviction writes back in a
	// sorted batch. Default 8.
	FlushBatch int
}

// raState is the sequential-pattern detector for automatic readahead.
type raState struct {
	mu      sync.Mutex
	last    disk.BlockID // last block in the detected stream
	hasLast bool
	streak  int          // consecutive +1 accesses in the stream
	window  int          // current readahead window, in blocks
	next    disk.BlockID // first block not yet scheduled in this run
}

// raMinStreak is how many consecutive block IDs the detector wants
// before it starts prefetching: short runs (a tiled kernel walking the
// tiles of a super-block row) are not streams, and prefetching past
// them only wastes frames.
const raMinStreak = 5

// maxInflightPrefetch bounds concurrent prefetch batches; beyond this,
// hints are dropped rather than queued (prefetch is advisory).
const maxInflightPrefetch = 64

// SetReadahead configures the I/O scheduler. It must be called before
// the pool is shared between goroutines (it is a setup knob, not a
// runtime toggle). Disabled (the default) the pool behaves exactly like
// the seed pool.
func (p *core) SetReadahead(cfg ReadaheadConfig) {
	if cfg.MinWindow <= 0 {
		cfg.MinWindow = 4
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 64 / len(p.shards)
	}
	if cfg.MaxWindow < cfg.MinWindow {
		cfg.MaxWindow = cfg.MinWindow
	}
	// The working-set clamp is applied last so nothing can override it:
	// with many concurrent streams in a small pool, both windows shrink
	// rather than letting their combined readahead flush the pool.
	if lim := p.capacity / (2 * len(p.shards)); lim >= 1 {
		if cfg.MaxWindow > lim {
			cfg.MaxWindow = lim
		}
		if cfg.MinWindow > lim {
			cfg.MinWindow = lim
		}
	}
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = 8
	}
	p.raCfg = cfg
	p.ra.window = cfg.MinWindow
	p.raEnabled.Store(cfg.Enabled)
}

// ReadaheadEnabled reports whether the I/O scheduler is on, so callers
// can skip the work of computing hints when it is not.
func (p *core) ReadaheadEnabled() bool { return p.raEnabled.Load() }

// maxShards bounds lock striping; beyond this the per-shard LRU lists
// become too short to approximate global LRU.
const maxShards = 64

// New creates a single-shard pool holding at most capacity frames over
// dev. Single-shard, single-goroutine use reproduces the original
// sequential pool's behaviour exactly.
func New(dev *disk.Device, capacity int) *Pool {
	return NewSharded(dev, capacity, 1)
}

// NewSharded creates a pool with the given frame capacity striped over
// shards lock shards. The shard count is rounded up to a power of two
// and clamped to [1, maxShards]; it never exceeds the capacity.
func NewSharded(dev *disk.Device, capacity, shards int) *Pool {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	n := 1
	for n < shards && n < maxShards {
		n <<= 1
	}
	for n > capacity && n > 1 {
		n >>= 1
	}
	c := &core{
		dev:      dev,
		capacity: capacity,
		shards:   make([]*shard, n),
		mask:     uint64(n - 1),
	}
	for i := range c.shards {
		c.shards[i] = &shard{frames: make(map[disk.BlockID]*Frame), lru: list.New()}
	}
	c.drain.cond.L = &c.drain.mu
	return &Pool{core: c}
}

// NewWithMemory creates a single-shard pool sized so it holds memElems
// scalar numbers: capacity = memElems / blockElems, at least 3 frames
// (the minimum any out-of-core algorithm in this repo needs).
func NewWithMemory(dev *disk.Device, memElems int64) *Pool {
	return NewShardedWithMemory(dev, memElems, 1)
}

// NewShardedWithMemory is NewWithMemory with a shard count, for
// concurrent executors.
func NewShardedWithMemory(dev *disk.Device, memElems int64, shards int) *Pool {
	frames := int(memElems / int64(dev.BlockElems()))
	if frames < 3 {
		frames = 3
	}
	return NewSharded(dev, frames, shards)
}

// shardOf returns the shard owning block id. This is a pure function of
// the id, which is what pins a frame to one shard for its lifetime.
func (p *core) shardOf(id disk.BlockID) *shard {
	return p.shards[p.shardIndex(id)]
}

// shardIndex spreads sequential block IDs across shards with a
// Fibonacci-style multiplicative hash.
func (p *core) shardIndex(id disk.BlockID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15 >> 32) & p.mask)
}

// Capacity returns the frame budget of this view: the pool-wide budget
// on the root view, the session quota on a view made by Session. Kernels
// and planners size their working sets from it, which is what keeps a
// quota'd session's algorithms inside the session's share of memory.
func (p *Pool) Capacity() int {
	if p.acct != nil && p.acct.quota < p.core.capacity {
		return p.acct.quota
	}
	return p.core.capacity
}

// Shards returns the number of lock stripes.
func (p *core) Shards() int { return len(p.shards) }

// MemoryElems returns this view's budget expressed in scalar numbers
// (M): the session quota's worth of elements on a quota'd view.
func (p *Pool) MemoryElems() int64 {
	return int64(p.Capacity()) * int64(p.dev.BlockElems())
}

// Device returns the underlying device.
func (p *core) Device() *disk.Device { return p.dev }

// Stats returns a snapshot of pool counters.
func (p *core) Stats() Stats {
	return Stats{
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		Evictions:      p.evictions.Load(),
		Flushes:        p.flushes.Load(),
		Prefetched:     p.prefetched.Load(),
		PrefetchHits:   p.prefetchHits.Load(),
		WastedPrefetch: p.wastedPrefetch.Load(),
	}
}

// ResetStats zeroes the pool counters (resident frames are kept).
func (p *core) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
	p.flushes.Store(0)
	p.prefetched.Store(0)
	p.prefetchHits.Store(0)
	p.wastedPrefetch.Store(0)
}

// Resident returns the number of frames currently held.
func (p *core) Resident() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// Pinned returns how many frames are currently pinned. Frames whose
// prefetch load is still in flight are not pinned (they hold no caller
// reference and become evictable the moment they land).
func (p *core) Pinned() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Pin fetches block id into the pool, pins it, and returns its frame.
// A pinned frame is exempt from eviction until Unpin. Pinning more
// frames than the capacity is an error: it means an algorithm is using
// more memory than its budget. On a view made by Session, the pin is
// additionally charged against the session's quota and refused when the
// quota is exhausted.
func (p *Pool) Pin(id disk.BlockID) (*Frame, error) {
	return p.viewPin(id, false)
}

// PinNew pins block id without reading it from the device, for blocks
// about to be fully overwritten. It still counts as a miss for residency
// purposes but performs no read I/O (the paper's write-only traffic for
// result matrices depends on this).
func (p *Pool) PinNew(id disk.BlockID) (*Frame, error) {
	return p.viewPin(id, true)
}

// Export copies block id's current contents — the resident frame if one
// exists (dirty frames included), the device otherwise — into dst
// without pinning, without charging any session quota, and without
// recording any simulated I/O. It is the durability capture path: the
// catalog's checkpoint and WAL serialize array blocks to the host
// filesystem, a different device from the simulated disk the paper's
// experiments measure, so the copy must not perturb the counters, the
// pool statistics, or the LRU. Callers must not Export blocks another
// goroutine may still be writing; catalog entries are immutable once
// published, which is what makes this safe there.
func (p *Pool) Export(id disk.BlockID, dst []float64) error {
	if len(dst) != p.core.dev.BlockElems() {
		return fmt.Errorf("buffer: export buffer has %d elems, want %d", len(dst), p.core.dev.BlockElems())
	}
	s := p.core.shardOf(id)
	s.mu.Lock()
	f := s.frames[id]
	s.mu.Unlock()
	if f != nil {
		<-f.ready // an in-flight prefetch load settles first
		if f.loadErr == nil {
			copy(dst, f.Data)
			return nil
		}
	}
	return p.core.dev.Export(id, dst)
}

// viewPin charges the view's account (if any) before delegating to the
// shared core, and refunds the charge when the pin fails.
func (p *Pool) viewPin(id disk.BlockID, fresh bool) (*Frame, error) {
	if a := p.acct; a != nil {
		if err := a.charge(); err != nil {
			return nil, err
		}
		f, err := p.core.pin(id, fresh)
		if err != nil {
			a.release()
		}
		return f, err
	}
	return p.core.pin(id, fresh)
}

func (p *core) pin(id disk.BlockID, fresh bool) (*Frame, error) {
	s := p.shardOf(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		if p.pinResident(s, f) == consumedAuto && !fresh {
			// Consuming a detector-prefetched frame: the readahead is
			// paying off, keep it running ahead of this stream (the
			// claims overlap with our wait for the frame's own load).
			// Hinted frames don't feed the detector — their hinter will
			// hint again.
			p.noteAccess(id)
		}
		return p.await(f)
	}
	s.mu.Unlock()

	// Miss: reserve a slot under the global budget, evicting if needed.
	if err := p.makeRoom(id); err != nil {
		return nil, err
	}
	f := &Frame{
		id:    id,
		Data:  make([]float64, p.dev.BlockElems()),
		pins:  1,
		ready: make(chan struct{}),
	}
	s.mu.Lock()
	if existing, ok := s.frames[id]; ok {
		// Another goroutine loaded the block while we were evicting.
		// Give the reserved slot back (before releasing the shard lock,
		// so a concurrent makeRoom never sees an inflated counter with
		// nothing to evict) and share the frame.
		p.resident.Add(-1)
		if p.pinResident(s, existing) == consumedAuto && !fresh {
			p.noteAccess(id)
		}
		return p.await(existing)
	}
	s.frames[id] = f
	s.mu.Unlock()
	p.misses.Add(1)
	if !fresh && p.raEnabled.Load() {
		p.noteAccess(id)
	}
	if !fresh {
		if err := p.dev.Read(id, f.Data); err != nil {
			f.loadErr = err
			close(f.ready)
			s.mu.Lock()
			delete(s.frames, id)
			p.resident.Add(-1)
			s.mu.Unlock()
			return nil, err
		}
	}
	close(f.ready)
	return f, nil
}

// Consumption kinds reported by pinResident.
const (
	consumedNone   = iota // plain hit on a non-prefetched frame
	consumedHinted        // consumed an explicitly hinted frame
	consumedAuto          // consumed a detector-prefetched frame
)

// pinResident bumps the pin count of a frame already in s and counts a
// hit. It takes over (and releases) s.mu, which the caller holds, and
// reports what kind of prefetched frame (if any) this pin consumed —
// the detector's cue to keep readahead running for a stream it started.
func (p *core) pinResident(s *shard, f *Frame) int {
	if f.pins == 0 && f.elem != nil {
		s.lru.Remove(f.elem)
		f.elem = nil
	}
	f.pins++
	consumed := consumedNone
	if f.prefetched {
		consumed = consumedAuto
		if f.hinted {
			consumed = consumedHinted
		}
	}
	f.prefetched = false
	s.mu.Unlock()
	p.hits.Add(1)
	if consumed != consumedNone {
		p.prefetchHits.Add(1)
	}
	return consumed
}

// await blocks until f's contents are loaded (a no-op for frames past
// their first load).
func (p *core) await(f *Frame) (*Frame, error) {
	<-f.ready
	if f.loadErr != nil {
		return nil, f.loadErr
	}
	return f, nil
}

// makeRoom reserves one frame slot in the global budget for a real Pin,
// evicting an unpinned frame if the pool is full. If the scheduler is on
// and every frame looks pinned, in-flight prefetch loads (which hold
// budget but are not yet evictable) are drained and the reservation
// retried, so readahead can never fail an algorithm that stays within
// its budget.
func (p *core) makeRoom(id disk.BlockID) error {
	err := p.tryMakeRoom(id)
	for i := 0; err != nil && p.raEnabled.Load() && i < 3; i++ {
		p.drain.wait()
		err = p.tryMakeRoom(id)
	}
	return err
}

// tryMakeRoom reserves one frame slot in the global budget, evicting an
// unpinned frame if the pool is full. Eviction prefers the shard that
// will receive the new block (preserving exact sequential LRU behaviour
// in the single-shard case) and falls back to scanning the other shards
// so one hot shard cannot fail while the pool is globally under budget.
func (p *core) tryMakeRoom(id disk.BlockID) error {
	if p.resident.Add(1) <= int64(p.capacity) {
		return nil
	}
	start := p.shardIndex(id)
	for i := range p.shards {
		s := p.shards[(start+i)&int(p.mask)]
		s.mu.Lock()
		front := s.lru.Front()
		if front == nil {
			s.mu.Unlock()
			continue
		}
		victim := front.Value.(*Frame)
		s.lru.Remove(front)
		victim.elem = nil
		// Write back before the frame leaves the map: once it is gone a
		// concurrent Pin of the same block re-reads the device, and must
		// see these contents.
		flushedDirty := false
		if victim.dirty.Load() {
			if err := p.dev.Write(victim.id, victim.Data); err != nil {
				s.lru.PushFront(victim)
				victim.elem = s.lru.Front()
				s.mu.Unlock()
				p.resident.Add(-1)
				return err
			}
			victim.dirty.Store(false)
			p.flushes.Add(1)
			flushedDirty = true
		}
		if victim.prefetched {
			p.wastedPrefetch.Add(1)
		}
		delete(s.frames, victim.id)
		s.mu.Unlock()
		p.resident.Add(-1)
		p.evictions.Add(1)
		if flushedDirty && p.raEnabled.Load() && p.raCfg.FlushBatch > 1 {
			p.elevatorSweep(victim.id)
		}
		return nil
	}
	p.resident.Add(-1)
	return fmt.Errorf("buffer: pool over budget: all %d frames pinned", p.capacity)
}

// elevatorSweep is the write half of the I/O scheduler: after an
// eviction pays for one dirty write-back anyway, the sweep flushes up to
// FlushBatch-1 more dirty unpinned frames — across all shards, in
// ascending BlockID order starting at the victim's block and wrapping,
// like a disk elevator — so write-backs leave as one sorted vectored
// request and later evictions find their victims already clean. The
// caller holds no locks; the sweep locks the involved shards in index
// order (the pool's only multi-shard lock site, so the ordering is a
// total one) to keep the frames stable across the vectored write.
func (p *core) elevatorSweep(afterID disk.BlockID) {
	// Collection is bounded so a huge pool does not turn every dirty
	// eviction into a full O(capacity) scan: examine at most
	// sweepScanLimit LRU entries across the shards (oldest first within
	// each, which is where the frames the elevator wants live anyway).
	const sweepScanLimit = 256
	scanned := 0
	var cands []*Frame
	for _, s := range p.shards {
		s.mu.Lock()
		for e := s.lru.Front(); e != nil && scanned < sweepScanLimit; e = e.Next() {
			scanned++
			if f := e.Value.(*Frame); f.dirty.Load() {
				cands = append(cands, f)
			}
		}
		s.mu.Unlock()
		if scanned >= sweepScanLimit {
			break
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		// Ascending from afterID, wrapping: the elevator keeps moving in
		// the direction the eviction write was already heading.
		ai, aj := cands[i].id > afterID, cands[j].id > afterID
		if ai != aj {
			return ai
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > p.raCfg.FlushBatch-1 {
		cands = cands[:p.raCfg.FlushBatch-1]
	}
	// Lock every involved shard in index order, then re-validate: a
	// frame may have been pinned, evicted, or flushed since collection.
	// Unpinned frames are never mutated by callers (the pool contract),
	// so writing them under their shard locks is not torn.
	shardIdx := make([]int, 0, len(cands))
	seen := make(map[int]bool, len(cands))
	for _, f := range cands {
		if i := p.shardIndex(f.id); !seen[i] {
			seen[i] = true
			shardIdx = append(shardIdx, i)
		}
	}
	sort.Ints(shardIdx)
	for _, i := range shardIdx {
		p.shards[i].mu.Lock()
	}
	var ids []disk.BlockID
	var srcs [][]float64
	var valid []*Frame
	for _, f := range cands {
		s := p.shardOf(f.id)
		if f.pins == 0 && s.frames[f.id] == f && f.dirty.Load() {
			ids = append(ids, f.id)
			srcs = append(srcs, f.Data)
			valid = append(valid, f)
		}
	}
	if len(ids) > 0 {
		// On error the unwritten frames stay dirty and are simply
		// written again later; the first n completed and are clean.
		n, _ := p.dev.WriteBlocks(ids, srcs)
		for _, f := range valid[:n] {
			f.dirty.Store(false)
		}
		p.flushes.Add(int64(n))
	}
	for i := len(shardIdx) - 1; i >= 0; i-- {
		p.shards[shardIdx[i]].mu.Unlock()
	}
}

// Prefetch hints that the named blocks will be read soon. When the
// scheduler is enabled, frames for the absent blocks are claimed
// immediately — on the caller's goroutine, so a Pin issued right after
// the hint collapses onto the loading frame via the singleflight path
// instead of racing a duplicate device read — while the device reads
// themselves happen on a background goroutine, one vectored request per
// contiguous run. Claims never exceed the frame budget (a hint that
// finds only pinned frames is dropped) and loaded frames are parked
// unpinned on the LRU. Blocks already resident or loading are skipped;
// when the scheduler is disabled, or too many batches are in flight, the
// hint is dropped. Prefetch never returns an error: it is advisory, and
// a block that cannot be loaded is simply read by the Pin that actually
// needs it.
func (p *core) Prefetch(ids []disk.BlockID) {
	if len(ids) == 0 || !p.raEnabled.Load() {
		return
	}
	if half := p.capacity / 2; len(ids) > half && half >= 1 {
		ids = ids[:half]
	}
	p.schedulePrefetch(ids, true)
}

// schedulePrefetch claims frames synchronously and hands them to a
// background goroutine for loading. hinted records whether the claims
// come from an explicit Prefetch (as opposed to the detector). The
// drain group is entered before the first claim: claimed frames hold
// budget, so a drain.wait must not return between a claim and the
// loader goroutine's registration (a Pin retrying after the wait would
// spuriously report the pool over budget).
func (p *core) schedulePrefetch(ids []disk.BlockID, hinted bool) {
	if p.inflight.Load() >= maxInflightPrefetch {
		return
	}
	p.drain.add()
	frames := make([]*Frame, 0, len(ids))
	for _, id := range ids {
		if f := p.claimForPrefetch(id, hinted); f != nil {
			frames = append(frames, f)
		}
	}
	if len(frames) == 0 {
		p.drain.done()
		return
	}
	p.inflight.Add(1)
	go func() {
		defer p.drain.done()
		defer p.inflight.Add(-1)
		p.loadPrefetched(frames)
	}()
}

// loadPrefetched reads the claimed frames off the hinting goroutine,
// with one vectored request per contiguous run of block IDs.
func (p *core) loadPrefetched(frames []*Frame) {
	sort.Slice(frames, func(i, j int) bool { return frames[i].id < frames[j].id })
	for lo := 0; lo < len(frames); {
		hi := lo + 1
		for hi < len(frames) && frames[hi].id == frames[hi-1].id+1 {
			hi++
		}
		run := frames[lo:hi]
		runIDs := make([]disk.BlockID, len(run))
		dsts := make([][]float64, len(run))
		for i, f := range run {
			runIDs[i] = f.id
			dsts[i] = f.Data
		}
		n, err := p.dev.ReadBlocks(runIDs, dsts)
		// The first n blocks completed and must not be re-charged. A
		// later block vanished (freed between claim and read): retry the
		// rest individually so one bad block cannot poison its whole run
		// — a Pin may be waiting on any of them.
		for i, f := range run {
			switch {
			case i < n:
				p.finishPrefetch(f, nil)
			case err != nil && i == n:
				p.finishPrefetch(f, err)
			default:
				p.finishPrefetch(f, p.dev.Read(f.id, f.Data))
			}
		}
		lo = hi
	}
}

// claimForPrefetch inserts a loading frame for id under the global
// budget. It returns nil when the block is already resident or loading,
// or when no frame can be claimed without touching pinned frames — a
// dropped hint, not an error.
func (p *core) claimForPrefetch(id disk.BlockID, hinted bool) *Frame {
	if !p.dev.Readable(id) {
		// Readahead ran past the end of an extent (or into freed space):
		// not an error, just nothing to fetch.
		return nil
	}
	s := p.shardOf(id)
	s.mu.Lock()
	_, present := s.frames[id]
	s.mu.Unlock()
	if present {
		return nil
	}
	// tryMakeRoom, not makeRoom: the prefetcher must never wait on its
	// own WaitGroup.
	if err := p.tryMakeRoom(id); err != nil {
		return nil
	}
	f := &Frame{
		id:         id,
		Data:       make([]float64, p.dev.BlockElems()),
		ready:      make(chan struct{}),
		loading:    true,
		prefetched: true,
		hinted:     hinted,
	}
	s.mu.Lock()
	if _, ok := s.frames[id]; ok {
		// A Pin loaded the block while we were evicting; give the slot
		// back before releasing the shard lock (same discipline as pin).
		p.resident.Add(-1)
		s.mu.Unlock()
		return nil
	}
	s.frames[id] = f
	s.mu.Unlock()
	p.prefetched.Add(1)
	return f
}

// finishPrefetch publishes a loaded prefetch frame: on success it parks
// the frame on the LRU (unless a Pin grabbed it mid-load), on failure or
// doom (Invalidate/DropAll raced the load) it discards the frame.
func (p *core) finishPrefetch(f *Frame, err error) {
	s := p.shardOf(f.id)
	s.mu.Lock()
	f.loading = false
	f.loadErr = err
	close(f.ready)
	switch {
	case err != nil:
		// Any waiting pinners observe loadErr; the frame leaves the map
		// so the next Pin retries the device read.
		if s.frames[f.id] == f {
			delete(s.frames, f.id)
		}
		p.resident.Add(-1)
	case f.doomed && f.pins == 0:
		delete(s.frames, f.id)
		p.resident.Add(-1)
		p.wastedPrefetch.Add(1)
	case f.pins == 0:
		f.elem = s.lru.PushBack(f)
	}
	// pins > 0: a Pin collapsed onto the loading frame; its Unpin will
	// park the frame on the LRU.
	s.mu.Unlock()
}

// noteAccess is the automatic-readahead detector. raMinStreak
// consecutive block IDs in the miss/consume stream start prefetching
// ahead of the reader; after that the detector refills only when the
// reader comes within half a window of the prefetched frontier (the
// async trigger — refilling on every access would fragment the vectored
// reads), doubling the window on each refill up to the clamp.
func (p *core) noteAccess(id disk.BlockID) {
	ra := &p.ra
	ra.mu.Lock()
	seq := ra.hasLast && id == ra.last+1
	ra.hasLast = true
	ra.last = id
	if !seq {
		ra.streak = 1
		ra.window = p.raCfg.MinWindow
		ra.next = id + 1
		ra.mu.Unlock()
		return
	}
	ra.streak++
	if ra.streak < raMinStreak {
		ra.next = id + 1
		ra.mu.Unlock()
		return
	}
	if ra.next <= id {
		ra.next = id + 1
	}
	if ra.next-id > disk.BlockID(ra.window/2) {
		// Frontier comfortably ahead of the reader: nothing to do yet.
		ra.mu.Unlock()
		return
	}
	target := id + disk.BlockID(ra.window)
	ids := make([]disk.BlockID, 0, target-ra.next+1)
	for b := ra.next; b <= target; b++ {
		ids = append(ids, b)
	}
	ra.next = target + 1
	ra.window *= 2
	if ra.window > p.raCfg.MaxWindow {
		ra.window = p.raCfg.MaxWindow
	}
	ra.mu.Unlock()
	p.schedulePrefetch(ids, false)
}

// DrainPrefetch blocks until every in-flight prefetch batch has
// completed and its frames are resident or discarded. Benchmarks call it
// before reading counters so asynchronous loads do not straddle the
// measurement; DropAll calls it so a quiesced pool really is quiet. The
// caller must not race it with new Pins (which could schedule more
// readahead).
func (p *core) DrainPrefetch() {
	p.drain.wait()
}

// Unpin releases one pin on f. When the pin count reaches zero the frame
// becomes evictable. On a session view the pin is returned to the
// session's quota; pins and unpins must go through the same view, which
// holds naturally because every array handle pins through the pool
// pointer it was created with.
func (p *Pool) Unpin(f *Frame) {
	p.core.unpin(f)
	if p.acct != nil {
		p.acct.release()
	}
}

func (p *core) unpin(f *Frame) {
	s := p.shardOf(f.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned frame %d", f.id))
	}
	f.pins--
	if f.pins == 0 {
		f.elem = s.lru.PushBack(f)
	}
}

// FlushAll writes back dirty frames without evicting. Frames pinned or
// still loading at flush time are skipped: an unpinned frame is never
// mutated by callers (the pool contract), so FlushAll is race-free no
// matter how many sessions are mid-operation, and a skipped frame stays
// dirty until eviction, a later flush, or a checkpoint captures it. With
// the scheduler enabled each shard's dirty frames go out as one
// vectored write sorted by BlockID, so contiguous dirty runs are
// charged sequentially instead of in map-iteration (random) order.
func (p *core) FlushAll() error {
	if p.raEnabled.Load() {
		return p.flushAllSorted()
	}
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins > 0 || f.loading {
				continue
			}
			if f.dirty.Load() {
				if err := p.dev.Write(f.id, f.Data); err != nil {
					s.mu.Unlock()
					return err
				}
				f.dirty.Store(false)
				p.flushes.Add(1)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// flushAllSorted is FlushAll under the scheduler: dirty frames from all
// shards are written in one globally ascending BlockID pass, each under
// its own shard lock, so contiguous dirty regions leave as sequential
// runs regardless of how the shard hash scattered them.
func (p *core) flushAllSorted() error {
	type cand struct {
		f *Frame
		s *shard
	}
	var cands []cand
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty.Load() {
				cands = append(cands, cand{f, s})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].f.id < cands[j].f.id })
	for _, c := range cands {
		c.s.mu.Lock()
		f := c.f
		if f.pins > 0 || f.loading {
			c.s.mu.Unlock()
			continue
		}
		if c.s.frames[f.id] == f && f.dirty.Load() {
			if err := p.dev.Write(f.id, f.Data); err != nil {
				c.s.mu.Unlock()
				return err
			}
			f.dirty.Store(false)
			p.flushes.Add(1)
		}
		c.s.mu.Unlock()
	}
	return nil
}

// Invalidate drops any resident (unpinned) copy of block id without
// writing it back. Used when an owner's extent is freed. A frame whose
// prefetch load is still in flight is doomed instead of dropped: the
// prefetcher discards it (and its budget reservation) when the load
// completes, so racing a Free against readahead is safe.
func (p *core) Invalidate(id disk.BlockID) {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		return
	}
	if f.loading && f.pins == 0 {
		f.doomed = true
		return
	}
	if f.pins > 0 {
		panic(fmt.Sprintf("buffer: invalidate of pinned frame %d", id))
	}
	if f.elem != nil {
		s.lru.Remove(f.elem)
		f.elem = nil
	}
	delete(s.frames, id)
	p.resident.Add(-1)
	if f.prefetched {
		p.wastedPrefetch.Add(1)
	}
}

// DropAll evicts every unpinned frame, flushing dirty ones. It returns an
// error if any frame is still pinned. Unlike FlushAll it requires a
// quiescent pool: the pinned check and the per-shard clearing are not
// atomic against concurrent Pins, so callers must not race it with
// other pool users (experiments call it between runs). In-flight
// prefetches are drained first, so after DropAll the pool is truly empty
// and the device truly idle.
func (p *core) DropAll() error {
	p.DrainPrefetch()
	if n := p.Pinned(); n > 0 {
		return fmt.Errorf("buffer: DropAll with %d pinned frames", n)
	}
	if err := p.FlushAll(); err != nil {
		return err
	}
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.prefetched {
				p.wastedPrefetch.Add(1)
			}
		}
		p.resident.Add(-int64(len(s.frames)))
		s.frames = make(map[disk.BlockID]*Frame)
		s.lru.Init()
		s.mu.Unlock()
	}
	return nil
}
