// Package catalog implements RIOT's durable catalog of named arrays:
// the layer that moves named numerical objects out of a process's
// transient heap and into database-grade storage, which is the paper's
// core argument applied to object lifetime rather than object access.
//
// A Catalog binds a host-filesystem directory to the simulated device
// behind a buffer pool. Named arrays published with PutVector/PutMatrix
// are copied into catalog-owned extents on the device (so they survive
// the publishing session), and Checkpoint persists every entry —
// metadata page plus raw tile payloads — into the directory with
// atomic write-then-rename steps (each followed by a directory fsync,
// so the rename itself survives a crash). Opening the same directory
// later replays the files into a fresh device, so a new process sees
// the same named arrays with identical values.
//
// # Write-ahead logging
//
// Checkpoints alone lose everything published since the last explicit
// Checkpoint call. OpenWith an Options.WAL mode other than WALOff adds
// a write-ahead log (internal/wal) underneath the catalog: every
// publish appends a framed, CRC-checked record carrying the entry's
// full payload, every delete appends its name, and — in WALAlways mode
// — the publish is acknowledged only after an fsync'd group flush.
// Open replays the log over the last checkpoint: records at or below
// the checkpoint's durable LSN are skipped (idempotent replay), torn
// tails are truncated by checksum, and every acknowledged commit
// survives a crash at any point, kill -9 included.
//
// The checkpoint is incremental in every mode: only entries dirty
// since the last checkpoint serialize their payloads (into an immutable
// segment file); clean entries reference the segment that already holds
// them. A successful checkpoint rotates the WAL down to an empty log;
// without a WAL it removes any log an earlier WAL-mode process left
// behind, whose records Open replayed and the manifest now covers.
//
// Publishing is last-writer-wins: a Put under the catalog lock replaces
// the table entry in one step, and readers that already hold the old
// version keep a valid handle (superseded storage is retired, not
// freed, until Close). All methods are safe for concurrent use by many
// sessions.
//
// # On-disk format
//
// catalog.riot is a manifest, little-endian:
//
//	[8]byte  magic "RIOTCAT2"
//	uint32   block size in float64 elements (must match the device)
//	uint64   the WAL LSN the checkpoint covers
//	uint64   segment generation counter
//	uint32   entry count
//	entries:
//	  uint32 name length, name bytes
//	  uint8  kind (0 vector, 1 matrix, 2 sparse matrix, 3 sparse vector)
//	  uint8  tile shape, uint8 linearization, uint8 flag (1: a segment
//	    reference follows; a WAL publish record carries the same header
//	    with flag 0 and the payload inline)
//	  int64  rows, int64 cols
//	  uint32 block count
//	  sparse kinds only: uint32 directory length, then that many
//	    uint32 per-tile (per-chunk) nonzero counts — the density
//	    statistics the planner reads, persisted with the data
//	  uint64 publish LSN, uint64 segment generation, uint64 byte offset
//
// The referenced segment file catalog.seg-<gen>.riot holds a "RIOTSEG1"
// header, the block size, then raw block payloads: block count ×
// blockElems × 8 bytes (float64 bits) per entry; sparse kinds store
// only their non-empty tiles' payloads, in row-major tile order.
// wal.riot is the log itself (see internal/wal for its format).
//
// Every field is written and read through internal/codec; the layout
// above is unchanged by that, byte for byte (TestOnDiskBytesPinned).
//
// A file whose magic or block size does not match is rejected rather
// than guessed at, and every declared size is checked against the
// geometry and the bytes present before anything is allocated. Sparse
// entries restore with their directories intact, so an all-zero tile
// still costs no block after a restart.
package catalog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/codec"
	"riot/internal/disk"
	"riot/internal/sparse"
	"riot/internal/wal"
)

// Magic identifies a catalog manifest whose entry payloads live in
// segment files.
const Magic = "RIOTCAT2"

// SegMagic identifies a payload segment file.
const SegMagic = "RIOTSEG1"

// FileName is the catalog manifest inside the directory.
const FileName = "catalog.riot"

// segPrefix and segSuffix bracket the generation number in a segment
// file's name.
const (
	segPrefix = "catalog.seg-"
	segSuffix = ".riot"
)

// segFileName returns the payload segment file for one checkpoint
// generation.
func segFileName(gen uint64) string {
	return segPrefix + strconv.FormatUint(gen, 10) + segSuffix
}

// Kind distinguishes stored vectors from stored matrices.
type Kind uint8

// Entry kinds.
const (
	KindVector       Kind = 0
	KindMatrix       Kind = 1
	KindSparseMatrix Kind = 2
	KindSparseVector Kind = 3
)

// WALMode selects the catalog's write-ahead-log durability mode.
type WALMode int

// WAL modes.
const (
	// WALOff keeps the catalog checkpoint-only: no log file, and
	// publishes since the last checkpoint die with the process.
	WALOff WALMode = iota
	// WALAlways acknowledges each publish after an fsync'd group
	// flush: acknowledged commits survive kill -9.
	WALAlways
	// WALInterval acknowledges publishes immediately and fsyncs the
	// log on a background timer (loss window = the flush interval).
	WALInterval
)

// Options configure OpenWith beyond the directory and pool.
type Options struct {
	// WAL selects the durability mode (default WALOff: checkpoint-only).
	WAL WALMode
	// FlushInterval is WALInterval's fsync period (default 50ms).
	FlushInterval time.Duration
	// WALInjector intercepts WAL appends for fault-injection tests.
	WALInjector wal.Injector
}

// Entry is one named array in the catalog. Exactly one of Vec, Mat,
// SMat, and SVec is non-nil, per Kind. Entries are immutable once
// published: a new Put under the same name creates a new Entry rather
// than mutating this one, so a handle obtained from Get stays valid
// (last-writer-wins for future readers, stable snapshots for current
// ones).
type Entry struct {
	Name    string
	Kind    Kind
	Version int64
	// LSN is the WAL sequence number that committed this entry (0 when
	// it was published without a WAL).
	LSN  uint64
	Vec  *array.Vector
	Mat  *array.Matrix
	SMat *sparse.Matrix
	SVec *sparse.Vector

	// segGen/segOff locate the entry's payload in a checkpoint segment
	// file; segGen 0 means the payload has no durable segment yet (the
	// entry is dirty and the next incremental checkpoint writes it).
	// Guarded by the catalog lock.
	segGen uint64
	segOff int64
}

// Rows returns the row count (the length for vectors).
func (e *Entry) Rows() int64 {
	switch e.Kind {
	case KindVector:
		return e.Vec.Len()
	case KindSparseVector:
		return e.SVec.Len()
	case KindSparseMatrix:
		return e.SMat.Rows()
	}
	return e.Mat.Rows()
}

// Cols returns the column count (1 for vectors).
func (e *Entry) Cols() int64 {
	switch e.Kind {
	case KindVector, KindSparseVector:
		return 1
	case KindSparseMatrix:
		return e.SMat.Cols()
	}
	return e.Mat.Cols()
}

// Catalog is a durable, concurrency-safe table of named arrays over one
// shared device. See the package comment.
type Catalog struct {
	dir  string
	pool *buffer.Pool // unmetered root view of the shared pool

	mu      sync.RWMutex
	entries map[string]*Entry
	// retired holds superseded or deleted entries whose storage cannot
	// be freed yet: sessions may still hold handles. Close frees them —
	// unless an onRetire hook is installed, in which case the hook's
	// owner (riot.DB) takes over reclamation.
	retired  []*Entry
	onRetire func(*Entry)
	version  int64
	gen      uint64 // checkpoint segment generation counter

	log *wal.Log // nil when WALOff
	// lsn is the newest WAL LSN the catalog has applied: the loaded
	// manifest's, or a replayed record's. A checkpoint without a log
	// covers it, so LSNs stay monotonic across mode switches.
	lsn uint64
}

// SetOnRetire hands superseded and deleted entries to fn instead of the
// internal until-Close list, so an owner that knows session lifetimes
// (riot.DB) can free retired storage as soon as no session can hold a
// handle. fn is called with the catalog lock held and must not call
// back into the catalog. Install before the catalog is shared.
func (c *Catalog) SetOnRetire(fn func(*Entry)) { c.onRetire = fn }

// FreeStorage drops the entry's resident frames and releases its device
// extent. Only the reclamation owner calls it, and only once no session
// can still hold the entry.
func (e *Entry) FreeStorage() {
	if e.Vec != nil {
		e.Vec.Free()
	}
	if e.Mat != nil {
		e.Mat.Free()
	}
	if e.SMat != nil {
		e.SMat.Free()
	}
	if e.SVec != nil {
		e.SVec.Free()
	}
}

// Open binds dir to the pool's device with the default options
// (checkpoint-only, no WAL). See OpenWith.
func Open(dir string, pool *buffer.Pool) (*Catalog, error) {
	return OpenWith(dir, pool, Options{})
}

// OpenWith binds dir to the pool's device, loading the catalog manifest
// if one exists (restoring every named array into fresh extents),
// creating the directory otherwise, and replaying every record of the
// write-ahead log past the manifest's durable LSN, so acknowledged
// publishes from a crashed process are visible immediately. Without a
// WAL mode a log left by an earlier WAL-mode process is still replayed,
// then closed; the next checkpoint removes it. pool should be the root
// (unmetered) view of the shared pool: catalog storage belongs to the
// system, not to any session's quota.
func OpenWith(dir string, pool *buffer.Pool, opts Options) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	c := &Catalog{dir: dir, pool: pool.Root(), entries: make(map[string]*Entry)}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Fresh directory: nothing to load.
	case err != nil:
		return nil, fmt.Errorf("catalog: %w", err)
	default:
		if err := c.load(data); err != nil {
			return nil, fmt.Errorf("catalog: loading %s: %w", path, err)
		}
	}
	if err := c.openWAL(opts); err != nil {
		return nil, err
	}
	return c, nil
}

// openWAL opens the write-ahead log and replays records past the
// manifest's LSN. Under WALOff it only drains a log an earlier WAL-mode
// process left behind: replayed, then closed, and removed by the next
// checkpoint.
func (c *Catalog) openWAL(opts Options) error {
	walPath := filepath.Join(c.dir, wal.FileName)
	if opts.WAL == WALOff {
		if _, err := os.Stat(walPath); os.IsNotExist(err) {
			return nil
		}
	}
	mode := wal.ModeAlways
	if opts.WAL == WALInterval {
		mode = wal.ModeInterval
	}
	l, recs, err := wal.Open(walPath, wal.Options{
		Mode:     mode,
		Interval: opts.FlushInterval,
		Injector: opts.WALInjector,
	})
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	checkLSN := c.lsn
	if err := c.replay(recs, checkLSN); err != nil {
		l.Close()
		return err
	}
	if opts.WAL == WALOff {
		return l.Close()
	}
	// A checkpoint taken without a log (or one whose log lost an
	// unsynced tail) can cover LSNs this log never held. Continue past
	// them before any append, or a new record would reuse an LSN the
	// manifest covers and the next replay would skip it.
	if l.LastLSN() < checkLSN {
		if err := l.Rotate(checkLSN); err != nil {
			l.Close()
			return fmt.Errorf("catalog: %w", err)
		}
	}
	c.log = l
	return nil
}

// replay applies WAL records newer than the checkpoint's durable LSN.
// Records at or below it are duplicates of state the checkpoint already
// holds and are skipped — that is what makes replay idempotent.
func (c *Catalog) replay(recs []wal.Record, checkLSN uint64) error {
	if len(recs) > 0 && recs[0].LSN > checkLSN+1 {
		return fmt.Errorf("catalog: WAL begins at LSN %d but the checkpoint covers only LSN %d: records were lost",
			recs[0].LSN, checkLSN)
	}
	for _, rec := range recs {
		if rec.LSN <= checkLSN {
			continue
		}
		switch rec.Type {
		case wal.RecPublish:
			e, err := c.decodePublish(rec.Payload)
			if err != nil {
				return fmt.Errorf("catalog: replaying WAL record %d: %w", rec.LSN, err)
			}
			e.LSN = rec.LSN
			// No session can hold a handle during open, so a replayed
			// supersede frees the old version on the spot.
			if old, ok := c.entries[e.Name]; ok {
				old.FreeStorage()
			}
			c.entries[e.Name] = e
		case wal.RecDelete:
			name := string(rec.Payload)
			if old, ok := c.entries[name]; ok {
				old.FreeStorage()
				delete(c.entries, name)
			}
		default:
			return fmt.Errorf("catalog: WAL record %d has unknown type %d", rec.LSN, rec.Type)
		}
		c.lsn = rec.LSN
	}
	return nil
}

// Dir returns the directory the catalog persists into.
func (c *Catalog) Dir() string { return c.dir }

// WALStats returns a snapshot of the write-ahead log's counters and
// whether a WAL is active.
func (c *Catalog) WALStats() (wal.Stats, bool) {
	if c.log == nil {
		return wal.Stats{}, false
	}
	return c.log.Stats(), true
}

// Len returns the number of named entries.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// List returns the catalog's names, sorted.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the current entry under name. The returned entry is a
// stable snapshot: it stays readable even if another session republishes
// the name afterwards.
func (c *Catalog) Get(name string) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	return e, ok
}

// owner builds the device owner name for one version of a named entry.
// Versions are globally unique, so republished names never collide.
func (c *Catalog) owner(name string, version int64) string {
	return fmt.Sprintf("cat.%s.v%d", name, version)
}

// PutVector publishes a copy of src under name, replacing any previous
// entry (last-writer-wins). The copy lives in catalog-owned storage on
// the same device, so it outlives the session that built src. The new
// entry is returned. With a WAL, the publish is appended to the log and
// — in WALAlways mode — acknowledged only after an fsync'd group flush;
// an error from that wait means the publish is visible to this process
// but its durability is unknown, and callers should treat it as failed.
func (c *Catalog) PutVector(name string, src *array.Vector) (*Entry, error) {
	c.mu.Lock()
	c.version++
	dst, err := array.NewVector(c.pool, c.owner(name, c.version), src.Len())
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if err := c.copyBlocks(src.BaseBlock(), dst.BaseBlock(), src.Blocks()); err != nil {
		dst.Free()
		c.mu.Unlock()
		return nil, err
	}
	e := &Entry{Name: name, Kind: KindVector, Version: c.version, Vec: dst}
	return c.commit(e)
}

// PutMatrix publishes a copy of src under name (see PutVector). The copy
// keeps src's tile shape and linearization, so the block-level copy is a
// value-level copy.
func (c *Catalog) PutMatrix(name string, src *array.Matrix) (*Entry, error) {
	c.mu.Lock()
	c.version++
	dst, err := array.NewMatrix(c.pool, c.owner(name, c.version), src.Rows(), src.Cols(),
		array.Options{Shape: src.Shape(), Lin: src.Lin()})
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if err := c.copyBlocks(src.BaseBlock(), dst.BaseBlock(), src.Blocks()); err != nil {
		dst.Free()
		c.mu.Unlock()
		return nil, err
	}
	e := &Entry{Name: name, Kind: KindMatrix, Version: c.version, Mat: dst}
	return c.commit(e)
}

// PutSparseMatrix publishes a copy of src under name (see PutVector).
// The copy keeps src's tile directory — and so its density statistics —
// with its non-empty blocks in one contiguous catalog-owned extent.
func (c *Catalog) PutSparseMatrix(name string, src *sparse.Matrix) (*Entry, error) {
	c.mu.Lock()
	c.version++
	dst, err := sparse.Clone(c.pool, c.owner(name, c.version), src)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	e := &Entry{Name: name, Kind: KindSparseMatrix, Version: c.version, SMat: dst}
	return c.commit(e)
}

// PutSparseVector publishes a copy of src under name (see PutVector).
func (c *Catalog) PutSparseVector(name string, src *sparse.Vector) (*Entry, error) {
	c.mu.Lock()
	c.version++
	dst, err := sparse.CloneVector(c.pool, c.owner(name, c.version), src)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	e := &Entry{Name: name, Kind: KindSparseVector, Version: c.version, SVec: dst}
	return c.commit(e)
}

// commit logs the fully-written entry to the WAL (when one is active),
// installs it in the table, releases the catalog lock, and waits out
// the durability mode. Callers hold c.mu on entry; commit owns the
// unlock so the fsync wait never blocks other publishers — that is what
// lets the flusher batch concurrent sessions into one group commit.
func (c *Catalog) commit(e *Entry) (*Entry, error) {
	var ack func() error
	if c.log != nil {
		payload, err := c.encodePublish(e)
		if err == nil {
			var lsn uint64
			lsn, ack, err = c.log.Append(wal.RecPublish, payload)
			e.LSN = lsn
		}
		if err != nil {
			e.FreeStorage()
			c.mu.Unlock()
			return nil, fmt.Errorf("catalog: logging publish of %q: %w", e.Name, err)
		}
	}
	c.replace(e)
	c.mu.Unlock()
	if ack != nil {
		if err := ack(); err != nil {
			return e, fmt.Errorf("catalog: publish of %q logged but not durable: %w", e.Name, err)
		}
	}
	return e, nil
}

// replace installs e and retires any previous holder of the name.
// Callers hold c.mu.
func (c *Catalog) replace(e *Entry) {
	if old, ok := c.entries[e.Name]; ok {
		c.retire(old)
	}
	c.entries[e.Name] = e
}

// retire routes a superseded entry to the hook or the until-Close list.
// Callers hold c.mu.
func (c *Catalog) retire(old *Entry) {
	if c.onRetire != nil {
		c.onRetire(old)
		return
	}
	c.retired = append(c.retired, old)
}

// Delete removes name from the catalog, retiring its storage, and
// reports whether the name existed. With a WAL the delete is logged
// (and, in WALAlways mode, fsync'd) like a publish, so a deleted name
// stays deleted across a crash.
func (c *Catalog) Delete(name string) (bool, error) {
	c.mu.Lock()
	old, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return false, nil
	}
	var ack func() error
	if c.log != nil {
		var err error
		if _, ack, err = c.log.Append(wal.RecDelete, []byte(name)); err != nil {
			c.mu.Unlock()
			return false, fmt.Errorf("catalog: logging delete of %q: %w", name, err)
		}
	}
	c.retire(old)
	delete(c.entries, name)
	c.mu.Unlock()
	if ack != nil {
		if err := ack(); err != nil {
			return true, fmt.Errorf("catalog: delete of %q logged but not durable: %w", name, err)
		}
	}
	return true, nil
}

// copyBlocks copies n blocks between two same-geometry extents through
// the buffer pool. Going through the pool (rather than the raw device)
// keeps the copy coherent with frames other sessions have resident, and
// charges honest I/O for cold source blocks.
func (c *Catalog) copyBlocks(srcBase, dstBase disk.BlockID, n int) error {
	for k := 0; k < n; k++ {
		sf, err := c.pool.Pin(srcBase + disk.BlockID(k))
		if err != nil {
			return err
		}
		df, err := c.pool.PinNew(dstBase + disk.BlockID(k))
		if err != nil {
			c.pool.Unpin(sf)
			return err
		}
		copy(df.Data, sf.Data)
		df.MarkDirty()
		c.pool.Unpin(df)
		c.pool.Unpin(sf)
	}
	return nil
}

// Checkpoint persists the catalog into the directory atomically (write
// to a temporary file, rename over the old one, fsync the directory so
// the rename survives a crash). It is incremental: only entries
// published since the last checkpoint write their payloads (into a
// fresh immutable segment file); clean entries are referenced where
// they already are, and the manifest records the WAL LSN it covers.
// On success a WAL is rotated down to empty; without one, any log an
// earlier WAL-mode process left behind is removed, since Open replayed
// it and the manifest covers its records. Payload bytes are captured
// with the pool's uncharged Export — persistence writes to the host
// filesystem, a different device from the simulated disk, and must not
// perturb the I/O counters the paper's experiments measure. Safe to
// call while sessions are running.
func (c *Catalog) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	durable := c.lsn
	if c.log != nil {
		durable = c.log.LastLSN()
	}
	gen := c.gen + 1
	var dirty []*Entry
	for _, e := range c.entries {
		if e.segGen == 0 {
			dirty = append(dirty, e)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Name < dirty[j].Name })
	if len(dirty) > 0 {
		if err := c.writeSegment(gen, dirty); err != nil {
			return err
		}
	}
	if err := c.writeManifest(durable, gen); err != nil {
		return err
	}
	c.gen = gen
	// Everything the manifest references is durable; drop segment files
	// no entry points at any more, then empty the log.
	referenced := make(map[uint64]bool, len(c.entries))
	for _, e := range c.entries {
		referenced[e.segGen] = true
	}
	c.removeSegmentsExcept(referenced)
	if c.log != nil {
		return c.log.Rotate(durable)
	}
	if err := os.Remove(filepath.Join(c.dir, wal.FileName)); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("catalog: %w", err)
	}
	return wal.SyncDir(c.dir)
}

// writeSegment persists the dirty entries' payloads into the gen
// segment file and stamps their segment references. Callers hold c.mu.
func (c *Catalog) writeSegment(gen uint64, dirty []*Entry) error {
	blockElems := c.pool.Device().BlockElems()
	offsets := make([]int64, len(dirty))
	err := c.writeFileAtomic(segFileName(gen), func(w io.Writer) error {
		var hdr codec.Writer
		hdr.Write([]byte(SegMagic))
		hdr.U32(uint32(blockElems))
		if _, err := w.Write(hdr.Bytes()); err != nil {
			return err
		}
		off := int64(hdr.Len())
		for i, e := range dirty {
			offsets[i] = off
			we, err := describeEntry(e)
			if err != nil {
				return fmt.Errorf("entry %q: %w", e.Name, err)
			}
			if err := c.writePayload(w, we.ids); err != nil {
				return fmt.Errorf("entry %q: %w", e.Name, err)
			}
			off += int64(len(we.ids)) * int64(blockElems) * 8
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Only after the segment is durably in place do the entries point
	// at it; a crash before this line leaves them dirty and the WAL
	// still authoritative.
	for i, e := range dirty {
		e.segGen, e.segOff = gen, offsets[i]
	}
	return nil
}

// writeManifest writes the manifest referencing every entry's segment.
// Callers hold c.mu, and every entry has a segment reference.
func (c *Catalog) writeManifest(durable, gen uint64) error {
	var w codec.Writer
	w.Write([]byte(Magic))
	w.U32(uint32(c.pool.Device().BlockElems()))
	w.U64(durable)
	w.U64(gen)
	w.U32(uint32(len(c.entries)))
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		e := c.entries[name]
		we, err := describeEntry(e)
		if err != nil {
			return fmt.Errorf("catalog: entry %q: %w", name, err)
		}
		writeMeta(&w, we, 1)
		w.U64(e.LSN)
		w.U64(e.segGen)
		w.U64(uint64(e.segOff))
	}
	return c.writeFileAtomic(FileName, func(f io.Writer) error {
		_, err := f.Write(w.Bytes())
		return err
	})
}

// writeFileAtomic replaces the directory file name with what fill
// writes: a temporary file, fsync, rename over name, directory fsync
// (without which the rename itself can vanish in a crash). A crash
// leaves either the old file or the complete new one.
func (c *Catalog) writeFileAtomic(name string, fill func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(c.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriterSize(tmp, 1<<20)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(c.dir, name))
	}
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return wal.SyncDir(c.dir)
}

// removeSegmentsExcept deletes segment files whose generation is not in
// keep. Removal failures are ignored: an orphan segment wastes disk,
// never correctness.
func (c *Catalog) removeSegmentsExcept(keep map[uint64]bool) {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		if !keep[gen] {
			os.Remove(filepath.Join(c.dir, name))
		}
	}
}

// Close checkpoints the catalog, closes the WAL, and frees retired
// storage. After Close the catalog must not be used. Entries' storage
// stays on the device: the device dies with the process, the files are
// what persist. If the checkpoint fails, the WAL is still closed
// (flushed, not rotated) so every acknowledged commit remains
// replayable, and the checkpoint error is returned.
func (c *Catalog) Close() error {
	err := c.Checkpoint()
	if c.log != nil {
		if werr := c.log.Close(); err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.retired {
		e.FreeStorage()
	}
	c.retired = nil
	return nil
}

// ---- serialization ----

// wireEntry is the serializable description of one entry: its geometry
// plus the device blocks holding its payload, in file order.
type wireEntry struct {
	name       string
	kind       Kind
	shape      array.TileShape
	lin        array.Linearization
	rows, cols int64
	ids        []disk.BlockID
	dir        []int32 // sparse kinds: per-tile (per-chunk) nonzero counts
}

// describeEntry gathers an entry's wire description.
func describeEntry(e *Entry) (wireEntry, error) {
	we := wireEntry{name: e.Name, kind: e.Kind}
	switch e.Kind {
	case KindVector:
		we.rows, we.cols = e.Vec.Len(), 1
		for k := 0; k < e.Vec.Blocks(); k++ {
			we.ids = append(we.ids, e.Vec.BaseBlock()+disk.BlockID(k))
		}
	case KindMatrix:
		we.rows, we.cols = e.Mat.Rows(), e.Mat.Cols()
		we.shape, we.lin = e.Mat.Shape(), e.Mat.Lin()
		for k := 0; k < e.Mat.Blocks(); k++ {
			we.ids = append(we.ids, e.Mat.BaseBlock()+disk.BlockID(k))
		}
	case KindSparseMatrix:
		we.rows, we.cols = e.SMat.Rows(), e.SMat.Cols()
		we.shape, we.lin = e.SMat.Shape(), e.SMat.Lin()
		we.ids = e.SMat.BlockIDs()
		we.dir = e.SMat.TileNNZs()
	case KindSparseVector:
		we.rows, we.cols = e.SVec.Len(), 1
		we.ids = e.SVec.BlockIDs()
		we.dir = e.SVec.ChunkNNZs()
	default:
		return we, fmt.Errorf("unknown entry kind %d", e.Kind)
	}
	return we, nil
}

// writeMeta writes one entry's metadata in the wire layout the manifest
// and WAL publish records share. flag 0 means the payload follows
// inline, 1 means a segment reference follows.
func writeMeta(w *codec.Writer, we wireEntry, flag byte) {
	w.Str(we.name)
	w.Write([]byte{byte(we.kind), byte(we.shape), byte(we.lin), flag})
	w.I64(we.rows)
	w.I64(we.cols)
	w.U32(uint32(len(we.ids)))
	if we.dir != nil {
		w.U32(uint32(len(we.dir)))
		for _, n := range we.dir {
			w.U32(uint32(n))
		}
	}
}

// writePayload captures the blocks' current contents (resident frames
// included, via the pool's uncharged Export) and writes them to w.
func (c *Catalog) writePayload(w io.Writer, ids []disk.BlockID) error {
	block := make([]float64, c.pool.Device().BlockElems())
	buf := make([]byte, 8*len(block))
	for _, id := range ids {
		if err := c.pool.Export(id, block); err != nil {
			return err
		}
		codec.PutF64s(buf, block)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// encodePublish serializes an entry — metadata plus inline payload —
// into a WAL record body. Callers hold c.mu.
func (c *Catalog) encodePublish(e *Entry) ([]byte, error) {
	we, err := describeEntry(e)
	if err != nil {
		return nil, err
	}
	w := codec.NewWriter(64 + len(we.ids)*c.pool.Device().BlockElems()*8)
	writeMeta(w, we, 0)
	if err := c.writePayload(w, we.ids); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// decodePublish restores an entry from a WAL record body (metadata plus
// inline payload) into fresh catalog-owned storage.
func (c *Catalog) decodePublish(payload []byte) (*Entry, error) {
	r := codec.NewReader(payload)
	m, err := c.readMeta(r)
	if err != nil {
		return nil, err
	}
	e, ids, err := c.allocEntry(m, int64(r.Len()))
	if err != nil {
		return nil, err
	}
	if err := c.importPayload(bytes.NewReader(r.Bytes(r.Len())), e.Name, ids); err != nil {
		e.FreeStorage()
		return nil, err
	}
	return e, nil
}

// load restores a manifest: per-entry metadata with segment references,
// payloads read from the referenced segment files. The catalog's LSN
// becomes the one the manifest covers.
func (c *Catalog) load(data []byte) error {
	r := codec.NewReader(data)
	if magic := r.Bytes(len(Magic)); string(magic) != Magic {
		return fmt.Errorf("bad magic %q (not a catalog file, or an unsupported version)", magic)
	}
	if err := c.checkBlockElems(r); err != nil {
		return err
	}
	durable, gen, count := r.U64(), r.U64(), r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	segs := make(map[uint64]*os.File)
	defer func() {
		for _, f := range segs {
			f.Close()
		}
	}()
	for i := uint32(0); i < count; i++ {
		if err := c.loadEntry(r, segs); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
	}
	c.lsn, c.gen = durable, gen
	return nil
}

// checkBlockElems validates a file's block size against the device.
func (c *Catalog) checkBlockElems(r *codec.Reader) error {
	blockElems := c.pool.Device().BlockElems()
	fileB := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	if int(fileB) != blockElems {
		return fmt.Errorf("catalog written with block size %d, device uses %d", fileB, blockElems)
	}
	return nil
}

// loadEntry restores one manifest entry from its segment.
func (c *Catalog) loadEntry(r *codec.Reader, segs map[uint64]*os.File) error {
	m, err := c.readMeta(r)
	if err != nil {
		return err
	}
	if m.flag != 1 {
		return fmt.Errorf("entry %q: manifest entry without a segment reference", m.name)
	}
	lsn, segGen, segOff := r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	sf := segs[segGen]
	if sf == nil {
		sf, err = c.openSegment(segGen)
		if err != nil {
			return fmt.Errorf("entry %q: %w", m.name, err)
		}
		segs[segGen] = sf
	}
	fi, err := sf.Stat()
	if err != nil {
		return fmt.Errorf("entry %q: segment %d: %w", m.name, segGen, err)
	}
	e, ids, err := c.allocEntry(m, fi.Size()-int64(min(segOff, uint64(fi.Size()))))
	if err != nil {
		return err
	}
	blockBytes := c.pool.Device().BlockElems() * 8
	sr := io.NewSectionReader(sf, int64(segOff), int64(len(ids))*int64(blockBytes))
	if err := c.importPayload(sr, e.Name, ids); err != nil {
		e.FreeStorage()
		return err
	}
	e.LSN = lsn
	e.segGen, e.segOff = segGen, int64(segOff)
	c.entries[e.Name] = e
	return nil
}

// openSegment opens and validates one payload segment file.
func (c *Catalog) openSegment(gen uint64) (*os.File, error) {
	path := filepath.Join(c.dir, segFileName(gen))
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening segment %d: %w", gen, err)
	}
	hdr := make([]byte, len(SegMagic)+4)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment %d: reading header: %w", gen, err)
	}
	r := codec.NewReader(hdr)
	if magic := r.Bytes(len(SegMagic)); string(magic) != SegMagic {
		f.Close()
		return nil, fmt.Errorf("segment %d: bad magic %q", gen, magic)
	}
	if err := c.checkBlockElems(r); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment %d: %w", gen, err)
	}
	return f, nil
}

// maxNameLen bounds entry names so a corrupt length field cannot drive a
// giant allocation.
const maxNameLen = 1 << 16

// maxEntryBlocks bounds one entry's block and directory counts, for the
// same reason.
const maxEntryBlocks = 1 << 24

// entryMeta is one parsed entry header, validated but not yet
// allocated.
type entryMeta struct {
	name       string
	kind       Kind
	shape      array.TileShape
	lin        array.Linearization
	flag       byte
	rows, cols int64
	nblocks    uint32
	dir        []int32
}

// readMeta parses and sanity-checks one entry header in the shared wire
// layout. Every check runs before any geometry-sized allocation, so a
// corrupt header cannot drive one: on success nblocks is exactly the
// block count allocEntry will create for the entry.
func (c *Catalog) readMeta(r *codec.Reader) (entryMeta, error) {
	m := entryMeta{name: r.Str()}
	if err := r.Err(); err != nil {
		return m, err
	}
	if len(m.name) == 0 || len(m.name) > maxNameLen {
		return m, fmt.Errorf("implausible name length %d", len(m.name))
	}
	m.kind, m.shape, m.lin, m.flag = Kind(r.U8()), array.TileShape(r.U8()), array.Linearization(r.U8()), r.U8()
	m.rows, m.cols, m.nblocks = r.I64(), r.I64(), r.U32()
	if err := r.Err(); err != nil {
		return m, err
	}
	if m.rows < 0 || m.cols < 0 || m.nblocks > maxEntryBlocks {
		return m, fmt.Errorf("implausible geometry %dx%d in %d blocks", m.rows, m.cols, m.nblocks)
	}
	// A dense entry stores every tile (chunk) its dimensions imply; a
	// sparse one has a directory entry per tile and stores only the
	// non-empty ones.
	want, err := gridSize(m.kind, m.rows, m.cols, m.shape, int64(c.pool.Device().BlockElems()))
	if err != nil {
		return m, err
	}
	if m.kind == KindVector || m.kind == KindMatrix {
		if int64(m.nblocks) != want {
			return m, fmt.Errorf("implausible geometry %dx%d in %d blocks, grid wants %d",
				m.rows, m.cols, m.nblocks, want)
		}
		return m, nil
	}
	dirLen := r.U32()
	if err := r.Err(); err != nil {
		return m, err
	}
	if int64(dirLen) != want || want > maxEntryBlocks {
		return m, fmt.Errorf("implausible sparse geometry %dx%d: directory %d, grid wants %d",
			m.rows, m.cols, dirLen, want)
	}
	m.dir = make([]int32, r.Count(int(dirLen), 4))
	stored := 0
	for i := range m.dir {
		m.dir[i] = int32(r.U32())
		if m.dir[i] > 0 {
			stored++
		}
	}
	if err := r.Err(); err != nil {
		return m, err
	}
	if stored != int(m.nblocks) {
		return m, fmt.Errorf("implausible sparse entry: directory has %d non-empty tiles, %d blocks declared",
			stored, m.nblocks)
	}
	return m, nil
}

// allocEntry allocates fresh catalog-owned device storage matching the
// parsed metadata and returns the entry plus its block IDs in file
// order. avail is how many payload bytes the source still holds: an
// entry declaring more is rejected before anything is allocated.
func (c *Catalog) allocEntry(m entryMeta, avail int64) (*Entry, []disk.BlockID, error) {
	if need := int64(m.nblocks) * int64(c.pool.Device().BlockElems()) * 8; need > avail {
		return nil, nil, fmt.Errorf("entry %q: truncated payload: %d bytes declared, %d present", m.name, need, avail)
	}
	c.version++
	e := &Entry{Name: m.name, Kind: m.kind, Version: c.version}
	var ids []disk.BlockID
	switch m.kind {
	case KindVector:
		v, err := array.NewVector(c.pool, c.owner(m.name, c.version), m.rows)
		if err != nil {
			return nil, nil, err
		}
		e.Vec = v
		for k := 0; k < v.Blocks(); k++ {
			ids = append(ids, v.BaseBlock()+disk.BlockID(k))
		}
	case KindMatrix:
		mat, err := array.NewMatrix(c.pool, c.owner(m.name, c.version), m.rows, m.cols,
			array.Options{Shape: m.shape, Lin: m.lin})
		if err != nil {
			return nil, nil, err
		}
		e.Mat = mat
		for k := 0; k < mat.Blocks(); k++ {
			ids = append(ids, mat.BaseBlock()+disk.BlockID(k))
		}
	case KindSparseMatrix:
		sm, err := sparse.Alloc(c.pool, c.owner(m.name, c.version), m.rows, m.cols,
			array.Options{Shape: m.shape, Lin: m.lin}, m.dir)
		if err != nil {
			return nil, nil, err
		}
		e.SMat, ids = sm, sm.BlockIDs()
	case KindSparseVector:
		sv, err := sparse.AllocVector(c.pool, c.owner(m.name, c.version), m.rows, m.dir)
		if err != nil {
			return nil, nil, err
		}
		e.SVec, ids = sv, sv.BlockIDs()
	default:
		return nil, nil, fmt.Errorf("unknown entry kind %d", m.kind)
	}
	return e, ids, nil
}

// importPayload reads len(ids) block payloads from r into the device
// (uncharged: restored state is the starting condition of a
// measurement, not part of it).
func (c *Catalog) importPayload(r io.Reader, name string, ids []disk.BlockID) error {
	dev := c.pool.Device()
	block := make([]float64, dev.BlockElems())
	buf := make([]byte, 8*len(block))
	for _, id := range ids {
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("entry %q: truncated payload: %w", name, err)
		}
		codec.GetF64s(block, buf)
		if err := dev.Import(id, block); err != nil {
			return err
		}
	}
	return nil
}

// gridSize returns the tile (or chunk) count an entry's dimensions
// imply: the block count of a dense entry, the directory length of a
// sparse one. Pure scalar arithmetic: it allocates nothing, so it is
// safe to run on corrupt headers.
func gridSize(kind Kind, rows, cols int64, shape array.TileShape, blockElems int64) (int64, error) {
	switch kind {
	case KindVector:
		// A dense vector keeps one block even when empty.
		return max(ceilDiv(rows, blockElems), 1), nil
	case KindSparseVector:
		return ceilDiv(rows, blockElems), nil
	case KindMatrix, KindSparseMatrix:
	default:
		return 0, fmt.Errorf("unknown entry kind %d", kind)
	}
	tr, tc, err := array.TileDimsFor(int(blockElems), shape)
	if err != nil {
		return 0, err
	}
	gr, gc := ceilDiv(rows, int64(tr)), ceilDiv(cols, int64(tc))
	// Bound each side before multiplying so corrupt dimensions cannot
	// overflow the product into a small, plausible-looking value.
	if gr > maxEntryBlocks || gc > maxEntryBlocks {
		return 0, fmt.Errorf("implausible grid %d×%d", gr, gc)
	}
	return gr * gc, nil
}

// ceilDiv returns ⌈n/d⌉ for n ≥ 0 and d > 0 without overflowing.
func ceilDiv(n, d int64) int64 { return n/d + min(n%d, 1) }
