package riot

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"riot/internal/buffer"
	"riot/internal/catalog"
	"riot/internal/disk"
	"riot/internal/engine"
	"riot/internal/rescache"
	"riot/internal/wal"
)

// DB is a durable, multi-session RIOT database: one simulated device and
// sharded buffer pool shared by every session, plus an on-disk catalog
// of named arrays that survives process restarts. Open binds a host
// directory; NewSession admits concurrent sessions against the shared
// memory budget; Checkpoint/Close persist the catalog.
//
// Named arrays published by one session (riotscript assignment in a
// served session, or Session.Publish*) are immediately visible to every
// other session, last-writer-wins. Each session's concurrently pinned
// frames are metered against a per-session quota, so one greedy session
// cannot pin the shared pool shut.
type DB struct {
	cfg   Config
	dev   *disk.Device
	pool  *buffer.Pool // root (unmetered) view
	cat   *catalog.Catalog
	cache *rescache.Cache // shared result cache; nil when disabled

	mu      sync.Mutex
	admit   *sync.Cond
	active  map[int64]struct{} // admitted session seqs
	maxSess int
	quota   int // frames per session
	seq     int64
	closed  bool
	// retired holds catalog versions superseded while sessions were
	// active. A version retired when the newest admitted session was
	// seq S can only be referenced by sessions with seq <= S, so its
	// storage is freed as soon as every such session has closed
	// (epoch-based reclamation; see reclaimLocked).
	retired []retiredVersion
}

// retiredVersion is one superseded catalog entry awaiting reclamation.
type retiredVersion struct {
	e     *catalog.Entry
	stamp int64 // db.seq when retired: no later session can reference it
}

// Open creates or reopens a RIOT database in dir. The catalog file in
// dir (if any) is replayed into a fresh device, so named arrays
// persisted by an earlier process are readable immediately. Only the
// RIOT backend serves databases; cfg.Backend must be BackendRIOT (the
// zero value).
//
// Two Config fields beyond the usual machine sizing matter here:
// SessionFrames is each session's pinned-frame quota, and MaxSessions
// bounds how many sessions may be admitted at once (admission control —
// NewSession blocks while the table is full). Their defaults carve the
// pool into four session shares.
func Open(dir string, cfg Config) (*DB, error) {
	if cfg.Backend != BackendRIOT {
		return nil, fmt.Errorf("riot: Open requires BackendRIOT")
	}
	if cfg.BlockElems == 0 {
		cfg.BlockElems = 1024
	}
	if cfg.MemElems == 0 {
		cfg.MemElems = 1 << 22
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Time == (engine.TimeModel{}) {
		cfg.Time = engine.DefaultTimeModel
	}
	dev := disk.NewDevice(cfg.BlockElems)
	pool := buffer.NewShardedWithMemory(dev, cfg.MemElems, cfg.Workers)
	if cfg.Readahead {
		pool.SetReadahead(buffer.ReadaheadConfig{Enabled: true})
	}
	quota := cfg.SessionFrames
	if quota <= 0 {
		quota = pool.Capacity() / 4
	}
	if quota < buffer.MinSessionQuota {
		quota = buffer.MinSessionQuota
	}
	if quota > pool.Capacity() {
		quota = pool.Capacity()
	}
	maxSess := cfg.MaxSessions
	if maxSess <= 0 {
		maxSess = pool.Capacity() / quota
		if maxSess < 1 {
			maxSess = 1
		}
	}
	opts := catalog.Options{FlushInterval: cfg.WALFlushInterval}
	switch cfg.WALSync {
	case WALSyncInterval:
		opts.WAL = catalog.WALInterval
	case WALSyncOff:
		opts.WAL = catalog.WALOff
	default:
		opts.WAL = catalog.WALAlways
	}
	cat, err := catalog.OpenWith(dir, pool, opts)
	if err != nil {
		return nil, err
	}
	db := &DB{
		cfg:     cfg,
		dev:     dev,
		pool:    pool,
		cat:     cat,
		active:  make(map[int64]struct{}),
		maxSess: maxSess,
		quota:   quota,
	}
	db.admit = sync.NewCond(&db.mu)
	if cfg.ResultCache {
		cq := cfg.ResultCacheQuota
		if cq <= 0 {
			cq = cfg.MemElems / 4
		}
		db.cache = rescache.New(pool, cq)
	}
	cat.SetOnRetire(db.retireVersion)
	return db, nil
}

// Catalog exposes the underlying catalog for the server and tests.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pool exposes the shared pool's root view (stats, capacity).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Names returns the catalog's current names, sorted.
func (db *DB) Names() []string { return db.cat.List() }

// SessionQuota returns the per-session pinned-frame quota.
func (db *DB) SessionQuota() int { return db.quota }

// MaxSessions returns the admission bound.
func (db *DB) MaxSessions() int { return db.maxSess }

// ActiveSessions returns the number of currently admitted sessions.
func (db *DB) ActiveSessions() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.active)
}

// NewSession admits a new session over the shared pool. When MaxSessions
// sessions are already active it blocks until one closes (admission
// control); it fails only if the database is closed. The session's pins
// are metered against the per-session quota, its storage is namespaced
// so Close frees exactly its own arrays and temporaries, and its
// riotscript interpreter reads and writes the shared catalog.
func (db *DB) NewSession() (*Session, error) { return db.newSession(true, nil) }

// TryNewSession is NewSession without the wait: it errors immediately
// when the session table is full.
func (db *DB) TryNewSession() (*Session, error) { return db.newSession(false, nil) }

// NewSessionCancel is NewSession with an abort signal: if cancel closes
// while the caller is still queued for admission, the wait ends and an
// error returns instead of a session. A server uses this to stop
// camping on the session table when the client behind the wait has
// already vanished — before it, such a client leaked its queue slot
// (and its handler goroutine) until the whole process exited.
func (db *DB) NewSessionCancel(cancel <-chan struct{}) (*Session, error) {
	if cancel != nil {
		// Wake the admission queue when cancel fires; the broadcast is
		// taken under db.mu so a waiter cannot miss it between its
		// cancellation check and re-arming Wait.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				db.mu.Lock()
				db.admit.Broadcast()
				db.mu.Unlock()
			case <-stop:
			}
		}()
	}
	return db.newSession(true, cancel)
}

// newSession admits under one lock hold, so TryNewSession's fullness
// check and the admission are atomic.
func (db *DB) newSession(wait bool, cancel <-chan struct{}) (*Session, error) {
	db.mu.Lock()
	for len(db.active) >= db.maxSess && !db.closed {
		if !wait {
			n := len(db.active)
			db.mu.Unlock()
			return nil, fmt.Errorf("riot: session table full (%d active, max %d)", n, db.maxSess)
		}
		select {
		case <-cancel:
			db.mu.Unlock()
			return nil, fmt.Errorf("riot: session admission canceled")
		default:
		}
		db.admit.Wait()
	}
	if db.closed {
		db.mu.Unlock()
		return nil, fmt.Errorf("riot: database is closed")
	}
	db.seq++
	seq := db.seq
	db.active[seq] = struct{}{}
	prefix := fmt.Sprintf("s%d.", seq)
	db.mu.Unlock()

	view := db.pool.Session(db.quota)
	eng := engine.NewRIOTWithPool(view, db.cfg.Time, engine.RIOTOptions{
		Workers: db.cfg.Workers,
		Planner: db.cfg.Planner.strategy(),
		Prefix:  prefix,
		Cache:   db.cache,
	})
	return &Session{eng: eng, db: db, seq: seq}, nil
}

// release returns one admission slot and reclaims any retired catalog
// versions the departing session was the last possible reader of;
// called by Session.Close.
func (db *DB) release(s *Session) {
	db.mu.Lock()
	delete(db.active, s.seq)
	db.reclaimLocked()
	db.admit.Signal()
	db.mu.Unlock()
}

// retireVersion is the catalog's onRetire hook (called with the catalog
// lock held): stamp the superseded version with the newest admitted
// session seq and queue it. Retiring also reclaims: with no sessions
// active, a hot publisher's old versions are freed on the spot.
func (db *DB) retireVersion(e *catalog.Entry) {
	// Eagerly reclaim cache entries computed from the superseded
	// version. Correctness never depends on this — the version is part
	// of every cache key, so stale entries can no longer be looked up —
	// but their quota is better spent on live results. The old stores
	// are also unregistered: DAGs still holding them become
	// cache-ineligible instead of hashing to unreachable keys.
	db.unregisterEntry(e)
	if db.cache != nil {
		db.cache.InvalidateName(e.Name)
	}
	db.mu.Lock()
	db.retired = append(db.retired, retiredVersion{e: e, stamp: db.seq})
	db.reclaimLocked()
	db.mu.Unlock()
}

// reclaimLocked frees every retired version whose stamp predates all
// active sessions: only sessions admitted at or before the stamp could
// hold a handle, so once they are gone the storage is unreachable.
// Callers hold db.mu.
func (db *DB) reclaimLocked() {
	minSeq := db.seq + 1
	for s := range db.active {
		if s < minSeq {
			minSeq = s
		}
	}
	keep := db.retired[:0]
	for _, r := range db.retired {
		if r.stamp < minSeq {
			r.e.FreeStorage()
		} else {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(db.retired); i++ {
		db.retired[i] = retiredVersion{}
	}
	db.retired = keep
}

// Checkpoint persists the catalog to the directory (atomic write-then-
// rename, incremental when the WAL is on). Safe to call while sessions
// are running.
func (db *DB) Checkpoint() error { return db.cat.Checkpoint() }

// WALStats returns a snapshot of the write-ahead log's counters and
// whether a WAL is active (false under WALSyncOff).
func (db *DB) WALStats() (wal.Stats, bool) { return db.cat.WALStats() }

// ResultCache exposes the shared result cache, or nil when the database
// was opened without Config.ResultCache. The server uses it for \cache;
// most callers want CacheStats.
func (db *DB) ResultCache() *rescache.Cache { return db.cache }

// CacheStats returns a snapshot of the result cache's counters and
// whether a cache is active (false unless Config.ResultCache was set).
func (db *DB) CacheStats() (rescache.Stats, bool) {
	if db.cache == nil {
		return rescache.Stats{}, false
	}
	return db.cache.Snapshot(), true
}

// registerEntry teaches the result cache the published identity of a
// catalog entry's backing stores, so expression DAGs built over handles
// to this entry hash by (name, version) instead of session-local
// pointers. Idempotent; no-op when the cache is off.
func (db *DB) registerEntry(e *catalog.Entry) {
	if db.cache == nil || e == nil {
		return
	}
	id := rescache.LeafID{Name: e.Name, Version: e.Version}
	if e.Vec != nil {
		db.cache.RegisterLeaf(e.Vec, id)
	}
	if e.Mat != nil {
		db.cache.RegisterLeaf(e.Mat, id)
	}
	if e.SVec != nil {
		db.cache.RegisterLeaf(e.SVec, id)
	}
	if e.SMat != nil {
		db.cache.RegisterLeaf(e.SMat, id)
	}
}

// unregisterEntry forgets a retired entry's stores. DAGs still holding
// the old handles become cache-ineligible rather than hashing to a key
// that can no longer be produced.
func (db *DB) unregisterEntry(e *catalog.Entry) {
	if db.cache == nil || e == nil {
		return
	}
	if e.Vec != nil {
		db.cache.UnregisterLeaf(e.Vec)
	}
	if e.Mat != nil {
		db.cache.UnregisterLeaf(e.Mat)
	}
	if e.SVec != nil {
		db.cache.UnregisterLeaf(e.SVec)
	}
	if e.SMat != nil {
		db.cache.UnregisterLeaf(e.SMat)
	}
}

// Close checkpoints the catalog and shuts the database. Every session
// must be closed first: with sessions still open, Close checkpoints the
// catalog anyway (so published state is not left silently stale) but
// refuses to tear down the shared pool, returning an error that names
// the open-session count — joined with the checkpoint error if that
// failed too. Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	if n := len(db.active); n > 0 {
		db.mu.Unlock()
		return errors.Join(
			fmt.Errorf("riot: Close with %d open sessions", n),
			db.cat.Checkpoint(),
		)
	}
	db.closed = true
	db.admit.Broadcast()
	db.reclaimLocked() // no active sessions: frees everything retired
	db.mu.Unlock()
	if db.cache != nil {
		db.cache.Close() // frees every cached temp's storage
	}
	db.pool.DrainPrefetch()
	return db.cat.Close()
}

// ---- named-object plumbing between sessions and the catalog ----

// riotEngine asserts the session runs the RIOT backend (the only one
// that can share storage with a catalog).
func (s *Session) riotEngine() (*engine.RIOT, error) {
	rt, ok := s.eng.(*engine.RIOT)
	if !ok {
		return nil, fmt.Errorf("riot: named objects require the RIOT backend (engine %q)", s.eng.Name())
	}
	return rt, nil
}

// Publish forces the vector expression and publishes the result in the
// database catalog under name (last-writer-wins). DB sessions only.
func (s *Session) Publish(name string, v *Vector) error {
	if s.db == nil {
		return fmt.Errorf("riot: Publish requires a database session (riot.Open)")
	}
	rt, err := s.riotEngine()
	if err != nil {
		return err
	}
	if sv, ok := rt.SparseVectorOf(v.val); ok {
		e, err := s.db.cat.PutSparseVector(name, sv)
		s.db.registerEntry(e)
		return err
	}
	vec, err := rt.ForceVector(v.val)
	if err != nil {
		return err
	}
	e, err := s.db.cat.PutVector(name, vec)
	s.db.registerEntry(e)
	return err
}

// PublishMatrix forces the matrix expression and publishes the result
// under name (see Publish). Results whose natural kind is sparse — a
// sparse handle, or a sparse×sparse product — publish as sparse catalog
// entries, keeping their tile directories across restart.
func (s *Session) PublishMatrix(name string, m *Matrix) error {
	if s.db == nil {
		return fmt.Errorf("riot: PublishMatrix requires a database session (riot.Open)")
	}
	rt, err := s.riotEngine()
	if err != nil {
		return err
	}
	mat, smat, err := rt.ForceAnyMatrix(m.val)
	if err != nil {
		return err
	}
	if smat != nil {
		e, err := s.db.cat.PutSparseMatrix(name, smat)
		s.db.registerEntry(e)
		return err
	}
	e, err := s.db.cat.PutMatrix(name, mat)
	s.db.registerEntry(e)
	return err
}

// Lookup returns the named catalog vector as a session handle. The
// handle is a stable snapshot: republishing the name elsewhere does not
// change it.
func (s *Session) Lookup(name string) (*Vector, error) {
	if s.db == nil {
		return nil, fmt.Errorf("riot: Lookup requires a database session (riot.Open)")
	}
	rt, err := s.riotEngine()
	if err != nil {
		return nil, err
	}
	e, ok := s.db.cat.Get(name)
	if !ok {
		return nil, fmt.Errorf("riot: object %q not found", name)
	}
	s.db.registerEntry(e)
	switch e.Kind {
	case catalog.KindVector:
		return &Vector{s: s, val: rt.WrapVector(e.Vec)}, nil
	case catalog.KindSparseVector:
		return &Vector{s: s, val: rt.WrapSparseVector(e.SVec)}, nil
	}
	return nil, fmt.Errorf("riot: object %q is a matrix; use LookupMatrix", name)
}

// LookupMatrix returns the named catalog matrix as a session handle
// (see Lookup).
func (s *Session) LookupMatrix(name string) (*Matrix, error) {
	if s.db == nil {
		return nil, fmt.Errorf("riot: LookupMatrix requires a database session (riot.Open)")
	}
	rt, err := s.riotEngine()
	if err != nil {
		return nil, err
	}
	e, ok := s.db.cat.Get(name)
	if !ok {
		return nil, fmt.Errorf("riot: object %q not found", name)
	}
	s.db.registerEntry(e)
	switch e.Kind {
	case catalog.KindMatrix:
		return &Matrix{s: s, val: rt.WrapMatrix(e.Mat)}, nil
	case catalog.KindSparseMatrix:
		return &Matrix{s: s, val: rt.WrapSparseMatrix(e.SMat)}, nil
	}
	return nil, fmt.Errorf("riot: object %q is a vector; use Lookup", name)
}

// sessionGlobals adapts a DB session to the riotscript interpreter's
// global-store hook: variable reads fall through to the shared catalog
// and top-level assignments publish to it, which is what makes named
// objects visible across served sessions.
type sessionGlobals struct{ s *Session }

// GetGlobal implements rlang.GlobalStore.
func (g sessionGlobals) GetGlobal(name string) (engine.Value, bool) {
	rt, err := g.s.riotEngine()
	if err != nil {
		return nil, false
	}
	e, ok := g.s.db.cat.Get(name)
	if !ok {
		return nil, false
	}
	g.s.db.registerEntry(e)
	switch e.Kind {
	case catalog.KindVector:
		return rt.WrapVector(e.Vec), true
	case catalog.KindSparseVector:
		return rt.WrapSparseVector(e.SVec), true
	case catalog.KindSparseMatrix:
		return rt.WrapSparseMatrix(e.SMat), true
	}
	return rt.WrapMatrix(e.Mat), true
}

// SetGlobal implements rlang.GlobalStore: force the expression and
// publish it under name. Sparse handles publish as sparse entries —
// their tile directories (and so their density statistics) survive into
// the catalog and across restarts.
func (g sessionGlobals) SetGlobal(name string, v engine.Value) error {
	rt, err := g.s.riotEngine()
	if err != nil {
		return err
	}
	if sv, ok := rt.SparseVectorOf(v); ok {
		e, err := g.s.db.cat.PutSparseVector(name, sv)
		g.s.db.registerEntry(e)
		return err
	}
	_, _, isVec := rt.Dims(v)
	if isVec {
		vec, err := rt.ForceVector(v)
		if err != nil {
			return err
		}
		e, err := g.s.db.cat.PutVector(name, vec)
		g.s.db.registerEntry(e)
		return err
	}
	mat, smat, err := rt.ForceAnyMatrix(v)
	if err != nil {
		return err
	}
	if smat != nil {
		e, err := g.s.db.cat.PutSparseMatrix(name, smat)
		g.s.db.registerEntry(e)
		return err
	}
	e, err := g.s.db.cat.PutMatrix(name, mat)
	g.s.db.registerEntry(e)
	return err
}
