// Package wal implements the write-ahead log underneath RIOT's durable
// catalog: an append-only, checksummed record log on the host
// filesystem that makes every acknowledged publish survive a crash —
// kill -9 included — that lands between checkpoints.
//
// The log is deliberately ignorant of what a record means. Callers
// append opaque payloads tagged with a RecordType; the catalog encodes
// published entries and deletes into them, and replays them over its
// last checkpoint on open. What the log owns is the durability
// contract:
//
//   - Every record is framed with a length, a monotonically increasing
//     LSN, and a CRC32C over the whole frame. A crash mid-append leaves
//     a torn tail that fails the checksum (or the length or LSN
//     continuity check); Open truncates the tail at the last good
//     record instead of failing, because a torn tail is the expected
//     shape of a crash, not corruption.
//   - In ModeAlways, Append's returned ack function blocks until a
//     dedicated flusher goroutine has fsync'd a batch that covers the
//     record. Concurrent appenders queue while one fsync is in flight
//     and are released together by the next — classic group commit, so
//     N sessions publishing at once pay ~1 fsync, not N.
//   - In ModeInterval, appends are acknowledged immediately and a
//     background ticker fsyncs every Interval; the loss window after a
//     crash is bounded by the interval.
//
// Rotate atomically replaces the log with an empty one whose header
// records the checkpoint's durable LSN, so replay after a checkpoint
// skips nothing and re-applies nothing.
//
// # On-disk format
//
// One file, little-endian:
//
//	[8]byte  magic "RIOTWAL1"
//	uint64   base LSN (records start at base+1; the durable LSN of the
//	         checkpoint this log continues from)
//	records:
//	  uint32 frame length n (= 1 type byte + 8 LSN bytes + payload)
//	  uint8  record type
//	  uint64 LSN
//	  payload (n-9 bytes)
//	  uint32 CRC32C over the length field and the n frame bytes
//
// Fault injection for tests rides on Options.Injector, which sees (and
// may truncate or fail) the framed bytes of each append — the hook the
// torn-tail and failed-device tests use to produce real bad files.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"riot/internal/codec"
)

// Magic identifies a WAL file (and its format version).
const Magic = "RIOTWAL1"

// FileName is the log file inside a database directory.
const FileName = "wal.riot"

// headerSize is the byte length of the file header (magic + base LSN).
const headerSize = len(Magic) + 8

// frameOverhead is the framed size of a record beyond its payload:
// length field, type byte, LSN, and trailing CRC.
const frameOverhead = 4 + 1 + 8 + 4

// maxFrame bounds one record's frame length so a corrupt length field
// cannot drive a giant allocation during replay.
const maxFrame = 1 << 30

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the same checksum iSCSI and ext4 use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordType tags what a record means to the layer replaying it.
type RecordType uint8

// Record types the catalog appends.
const (
	// RecPublish carries one serialized catalog entry (name, geometry,
	// tile payloads) whose publish is being committed.
	RecPublish RecordType = 1
	// RecDelete carries the name of a deleted catalog entry.
	RecDelete RecordType = 2
)

// Mode selects when appended records become durable.
type Mode int

// Durability modes.
const (
	// ModeAlways acknowledges an append only after an fsync'd group
	// flush covers it.
	ModeAlways Mode = iota
	// ModeInterval acknowledges appends immediately and fsyncs on a
	// background timer (loss window = the interval).
	ModeInterval
)

// String renders the mode the way the \wal command and Config docs
// spell it.
func (m Mode) String() string {
	if m == ModeInterval {
		return "interval"
	}
	return "always"
}

// Record is one replayed log record.
type Record struct {
	// LSN is the record's log sequence number.
	LSN uint64
	// Type tags the record for the replaying layer.
	Type RecordType
	// Payload is the record body, owned by the caller after Open.
	Payload []byte
}

// Injector intercepts the framed bytes of the i-th append (0-based)
// before they reach the file. Returning a shorter slice simulates a
// crash mid-write (the prefix is written, then the log wedges);
// returning an error without shortening simulates a failed device. A
// nil return slice with a nil error writes nothing. Production code
// never installs one.
type Injector func(appendIndex int, frame []byte) ([]byte, error)

// Options configure Open.
type Options struct {
	// Mode selects the durability mode (default ModeAlways).
	Mode Mode
	// Interval is ModeInterval's flush period (default 50ms).
	Interval time.Duration
	// Injector, when non-nil, intercepts every append (tests only).
	Injector Injector
}

// Stats is a snapshot of the log's counters, surfaced by the server's
// \wal command.
type Stats struct {
	// Mode is the durability mode ("always" or "interval").
	Mode string
	// Appends counts records appended this process.
	Appends int64
	// AppendedBytes counts framed bytes appended this process.
	AppendedBytes int64
	// Fsyncs counts file syncs issued.
	Fsyncs int64
	// GroupedAcks counts appenders released by group flushes — when it
	// exceeds Fsyncs, group commit is batching concurrent sessions.
	GroupedAcks int64
	// LastLSN is the newest assigned LSN (0 when the log is empty).
	LastLSN uint64
	// DurableLSN is the newest LSN known fsync'd (or covered by a
	// checkpoint rotation).
	DurableLSN uint64
	// Rotations counts checkpoint rotations.
	Rotations int64
	// Replayed counts records recovered by Open.
	Replayed int64
	// TruncatedBytes is the torn tail length Open cut off (0 on a
	// clean log).
	TruncatedBytes int64
}

// waiter is one Append blocked on durability.
type waiter struct {
	lsn uint64
	ch  chan error
}

// Log is an append-only, checksummed, group-committed record log. All
// methods are safe for concurrent use.
type Log struct {
	path string
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	base      uint64 // header base LSN of the current file
	next      uint64 // LSN the next append gets
	durable   uint64
	appendIdx int
	waiters   []waiter
	sticky    error // first write/flush error; the log is wedged after
	closed    bool

	appends        int64
	appendedBytes  int64
	fsyncs         int64
	groupedAcks    int64
	rotations      int64
	replayed       int64
	truncatedBytes int64

	flushCh chan struct{}
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// Open opens (or creates) the log at path, replays its records, and
// returns them in LSN order along with the ready-to-append log. A torn
// tail — short frame, checksum mismatch, or LSN discontinuity — is
// truncated at the last good record, not treated as an error: that is
// what a crash mid-append leaves behind. The caller applies records
// with LSN greater than its checkpoint's durable LSN and ignores the
// rest (replay is idempotent).
func Open(path string, opts Options) (*Log, []Record, error) {
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	l := &Log{
		path:    path,
		dir:     filepath.Dir(path),
		opts:    opts,
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
	var recs []Record
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		if err := l.writeFresh(path, 0); err != nil {
			return nil, nil, err
		}
	case err != nil:
		return nil, nil, fmt.Errorf("wal: %w", err)
	default:
		var goodOff int64
		recs, goodOff, err = l.scan(data)
		if err != nil {
			return nil, nil, err
		}
		if goodOff < int64(len(data)) {
			l.truncatedBytes = int64(len(data)) - goodOff
			if err := os.Truncate(path, goodOff); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<20)
	l.replayed = int64(len(recs))
	l.next = l.base + uint64(len(recs)) + 1
	l.durable = l.next - 1 // everything on disk at open is durable
	l.wg.Add(1)
	if opts.Mode == ModeInterval {
		go l.intervalFlusher()
	} else {
		go l.groupFlusher()
	}
	return l, recs, nil
}

// writeFresh creates an empty log whose header continues from base,
// fsyncs it and its directory, and records base in l.
func (l *Log) writeFresh(path string, base uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint64(hdr[len(Magic):], base)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.base = base
	return SyncDir(l.dir)
}

// scan validates data's header and records, returning the records and
// the offset after the last good one. Frame damage is reported via the
// offset (the caller truncates); header damage is an error — a log
// whose header is unreadable cannot be safely continued.
func (l *Log) scan(data []byte) ([]Record, int64, error) {
	if len(data) < headerSize {
		return nil, 0, fmt.Errorf("wal: file shorter than its %d-byte header (%d bytes)", headerSize, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, fmt.Errorf("wal: bad magic %q (not a WAL file, or an unsupported version)", data[:len(Magic)])
	}
	l.base = binary.LittleEndian.Uint64(data[len(Magic):headerSize])
	var recs []Record
	off := int64(headerSize)
	expect := l.base + 1
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, nil // clean EOF
		}
		if len(rest) < 4 {
			return recs, off, nil // torn length field
		}
		n := binary.LittleEndian.Uint32(rest)
		if n < 9 || n > maxFrame || int64(len(rest)) < int64(n)+8 {
			return recs, off, nil // implausible length or torn frame
		}
		frame := rest[:4+n]
		wantCRC := binary.LittleEndian.Uint32(rest[4+n:])
		if crc32.Checksum(frame, castagnoli) != wantCRC {
			return recs, off, nil // torn or corrupt record
		}
		lsn := binary.LittleEndian.Uint64(frame[5:13])
		if lsn != expect {
			return recs, off, nil // discontinuity: everything after is suspect
		}
		payload := make([]byte, n-9)
		copy(payload, frame[13:])
		recs = append(recs, Record{LSN: lsn, Type: RecordType(frame[4]), Payload: payload})
		expect++
		off += int64(n) + 8
	}
}

// encodeFrame builds the framed bytes for one record.
func encodeFrame(t RecordType, lsn uint64, payload []byte) []byte {
	w := codec.NewWriter(frameOverhead + len(payload))
	w.U32(uint32(1 + 8 + len(payload)))
	w.U8(uint8(t))
	w.U64(lsn)
	w.Write(payload)
	w.U32(crc32.Checksum(w.Bytes(), castagnoli))
	return w.Bytes()
}

// Append writes one record to the log buffer and returns its LSN plus
// an ack function enforcing the durability mode: in ModeAlways the ack
// blocks until a group flush has fsync'd the record (many concurrent
// acks are released by one fsync); in ModeInterval the ack is nil and
// the background timer bounds the loss window. A non-nil error means
// the record was not logged; after the first write error the log is
// wedged and every later Append fails.
func (l *Log) Append(t RecordType, payload []byte) (uint64, func() error, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, nil, fmt.Errorf("wal: log is closed")
	}
	if l.sticky != nil {
		err := l.sticky
		l.mu.Unlock()
		return 0, nil, err
	}
	lsn := l.next
	frame := encodeFrame(t, lsn, payload)
	idx := l.appendIdx
	l.appendIdx++
	if inj := l.opts.Injector; inj != nil {
		mutated, injErr := inj(idx, frame)
		if injErr != nil || len(mutated) != len(frame) {
			// Simulated crash or device failure: push whatever the
			// injector let through straight to the file (past the
			// buffer, so the torn bytes are really there for the next
			// Open to find), then wedge.
			if flushErr := l.w.Flush(); flushErr == nil && len(mutated) > 0 {
				l.f.Write(mutated)
			}
			if injErr == nil {
				injErr = fmt.Errorf("wal: injected short write (%d of %d bytes)", len(mutated), len(frame))
			}
			l.sticky = injErr
			l.mu.Unlock()
			return 0, nil, injErr
		}
		frame = mutated
	}
	if _, err := l.w.Write(frame); err != nil {
		l.sticky = err
		l.mu.Unlock()
		return 0, nil, err
	}
	l.next++
	l.appends++
	l.appendedBytes += int64(len(frame))
	if l.opts.Mode == ModeInterval {
		l.mu.Unlock()
		return lsn, nil, nil
	}
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, waiter{lsn: lsn, ch: ch})
	l.mu.Unlock()
	select {
	case l.flushCh <- struct{}{}:
	default: // a flush is already scheduled; it will cover us
	}
	return lsn, func() error { return <-ch }, nil
}

// groupFlusher is ModeAlways's dedicated flusher: each wakeup flushes
// and fsyncs once, releasing every appender queued up to that point.
func (l *Log) groupFlusher() {
	defer l.wg.Done()
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.flushCh:
			l.flush()
		}
	}
}

// intervalFlusher fsyncs on the ModeInterval timer.
func (l *Log) intervalFlusher() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-t.C:
			l.flush()
		}
	}
}

// flush flushes the buffer, fsyncs, advances the durable LSN, and
// releases queued waiters. It holds the log lock across the fsync, so
// appends racing the flush queue for the next batch — which is exactly
// what makes the commit a group.
func (l *Log) flush() error {
	l.mu.Lock()
	ws := l.waiters
	l.waiters = nil
	err := l.sticky
	if err == nil {
		if err = l.w.Flush(); err == nil {
			err = l.f.Sync()
			l.fsyncs++
		}
		if err != nil {
			l.sticky = err
		}
	}
	if err == nil {
		l.durable = l.next - 1
	}
	l.groupedAcks += int64(len(ws))
	l.mu.Unlock()
	for _, w := range ws {
		w.ch <- err
	}
	return err
}

// Sync forces an immediate flush+fsync (interval mode's \checkpoint
// path and the tests use it).
func (l *Log) Sync() error { return l.flush() }

// LastLSN returns the newest assigned LSN (0 when nothing was ever
// appended).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Rotate atomically replaces the log with an empty one whose header
// continues from durableLSN — the LSN the just-written checkpoint
// covers. Records at or below durableLSN are durable through the
// checkpoint, so pending ModeAlways waiters are released successfully
// without another fsync. On error the old log is untouched and still
// valid.
func (l *Log) Rotate(durableLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if durableLSN+1 < l.next {
		return fmt.Errorf("wal: rotation to LSN %d would drop records up to %d", durableLSN, l.next-1)
	}
	tmp := l.path + ".tmp"
	nl := &Log{dir: l.dir}
	if err := nl.writeFresh(tmp, durableLSN); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := SyncDir(l.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("wal: reopening rotated log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f.Close()
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<20)
	l.base = durableLSN
	if l.next < durableLSN+1 {
		l.next = durableLSN + 1
	}
	l.durable = l.next - 1
	l.rotations++
	ws := l.waiters
	l.waiters = nil
	l.groupedAcks += int64(len(ws))
	for _, w := range ws {
		w.ch <- nil // durable via the checkpoint that triggered the rotation
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Mode:           l.opts.Mode.String(),
		Appends:        l.appends,
		AppendedBytes:  l.appendedBytes,
		Fsyncs:         l.fsyncs,
		GroupedAcks:    l.groupedAcks,
		LastLSN:        l.next - 1,
		DurableLSN:     l.durable,
		Rotations:      l.rotations,
		Replayed:       l.replayed,
		TruncatedBytes: l.truncatedBytes,
	}
}

// Close flushes and fsyncs outstanding records, stops the flusher, and
// closes the file. Waiters still queued are released by the final
// flush. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stopCh)
	l.wg.Wait()
	flushErr := l.flush()
	if err := l.f.Close(); err != nil && flushErr == nil {
		flushErr = err
	}
	return flushErr
}

// SyncDir fsyncs a directory so a rename inside it survives a crash —
// the step POSIX requires but almost everyone forgets. The catalog
// calls it after every checkpoint and rotation rename.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}
