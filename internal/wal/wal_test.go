package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t testing.TB, path string, opts Options) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func appendAck(t testing.TB, l *Log, typ RecordType, payload []byte) uint64 {
	t.Helper()
	lsn, ack, err := l.Append(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack != nil {
		if err := ack(); err != nil {
			t.Fatal(err)
		}
	}
	return lsn
}

// TestAppendReplayRoundTrip: records written in one "process" come back
// in order, with types, LSNs, and payloads intact, in a second one.
func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, recs := openT(t, path, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i*7))))
		want = append(want, p)
		lsn := appendAck(t, l, RecPublish, p)
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	appendAck(t, l, RecDelete, []byte("gone"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs2 := openT(t, path, Options{})
	defer l2.Close()
	if len(recs2) != 21 {
		t.Fatalf("replayed %d records, want 21", len(recs2))
	}
	for i, p := range want {
		r := recs2[i]
		if r.LSN != uint64(i+1) || r.Type != RecPublish || !bytes.Equal(r.Payload, p) {
			t.Fatalf("record %d = {%d %d %q}", i, r.LSN, r.Type, r.Payload)
		}
	}
	if last := recs2[20]; last.Type != RecDelete || string(last.Payload) != "gone" {
		t.Fatalf("delete record came back as {%d %q}", last.Type, last.Payload)
	}
	// Appends continue from the replayed LSN.
	if lsn := appendAck(t, l2, RecPublish, []byte("more")); lsn != 22 {
		t.Fatalf("post-replay append got LSN %d, want 22", lsn)
	}
}

// TestTornTailTruncated: a crash mid-append (raw bytes chopped at every
// possible boundary inside the last record) must replay every earlier
// record and truncate the tail, never error.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	l, _ := openT(t, path, Options{})
	for i := 0; i < 3; i++ {
		appendAck(t, l, RecPublish, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len("rec-2") + frameOverhead
	for cut := 1; cut < lastFrame; cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.riot", cut))
		if err := os.WriteFile(torn, whole[:len(whole)-cut], 0o666); err != nil {
			t.Fatal(err)
		}
		l2, recs := openT(t, torn, Options{})
		if len(recs) != 2 {
			t.Fatalf("cut=%d: replayed %d records, want 2", cut, len(recs))
		}
		if st := l2.Stats(); st.TruncatedBytes == 0 {
			t.Fatalf("cut=%d: no truncation recorded", cut)
		}
		// The truncated log must accept appends at the right LSN.
		if lsn := appendAck(t, l2, RecPublish, []byte("after")); lsn != 3 {
			t.Fatalf("cut=%d: append after truncation got LSN %d, want 3", cut, lsn)
		}
		l2.Close()
	}
}

// TestCorruptMidRecordCutsTail: a flipped byte inside a record drops it
// and everything after (the tail is suspect once continuity breaks).
func TestCorruptMidRecordCutsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := openT(t, path, Options{})
	appendAck(t, l, RecPublish, []byte("first-record"))
	appendAck(t, l, RecPublish, []byte("second-record"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+10] ^= 0xff // inside the first record
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, path, Options{})
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records after first-record corruption, want 0", len(recs))
	}
}

// TestBadHeaderRejected: unlike a torn tail, an unreadable header is a
// hard error — the log cannot be safely continued.
func TestBadHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"short":     []byte("RIOT"),
		"bad-magic": []byte("NOTAWAL!12345678"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o666); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path, Options{}); err == nil {
			t.Fatalf("%s: Open accepted a log with a damaged header", name)
		}
	}
}

// TestInjectorShortWrite: the fault injector chops the Nth append; the
// append fails, the log wedges, and reopening finds exactly the records
// before the fault (the torn bytes are truncated).
func TestInjectorShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	inj := func(i int, frame []byte) ([]byte, error) {
		if i == 2 {
			return frame[:len(frame)/2], nil
		}
		return frame, nil
	}
	l, _ := openT(t, path, Options{Injector: inj})
	appendAck(t, l, RecPublish, []byte("zero"))
	appendAck(t, l, RecPublish, []byte("one"))
	if _, _, err := l.Append(RecPublish, []byte("two")); err == nil {
		t.Fatal("short-written append reported success")
	}
	// The log is wedged: later appends fail too.
	if _, _, err := l.Append(RecPublish, []byte("three")); err == nil {
		t.Fatal("append after injected fault reported success")
	}
	l.Close()

	l2, recs := openT(t, path, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 acknowledged ones", len(recs))
	}
	if st := l2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("torn bytes from the injected fault were not truncated")
	}
}

// TestInjectorFailedAppend: an injector error (failed device) fails the
// append without corrupting the file.
func TestInjectorFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	inj := func(i int, frame []byte) ([]byte, error) {
		if i == 1 {
			return nil, fmt.Errorf("simulated EIO")
		}
		return frame, nil
	}
	l, _ := openT(t, path, Options{Injector: inj})
	appendAck(t, l, RecPublish, []byte("fine"))
	if _, _, err := l.Append(RecPublish, []byte("doomed")); err == nil {
		t.Fatal("append survived an injected device error")
	}
	l.Close()
	l2, recs := openT(t, path, Options{})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "fine" {
		t.Fatalf("replay after failed append: %d records", len(recs))
	}
}

// TestGroupCommitBatchesFsyncs: many goroutines appending with
// ModeAlways must complete with far fewer fsyncs than appends.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := openT(t, path, Options{Mode: ModeAlways})
	defer l.Close()
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, ack, err := l.Append(RecPublish, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := ack(); err != nil {
					t.Errorf("lsn %d: %v", lsn, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*per {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*per)
	}
	if st.DurableLSN != uint64(writers*per) {
		t.Fatalf("durable LSN = %d, want %d", st.DurableLSN, writers*per)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("no batching: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	if st.GroupedAcks != st.Appends {
		t.Fatalf("grouped acks = %d, want %d", st.GroupedAcks, st.Appends)
	}
}

// TestIntervalModeFlushes: appends ack immediately and the background
// timer makes them durable within a few intervals.
func TestIntervalModeFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := openT(t, path, Options{Mode: ModeInterval, Interval: 5 * time.Millisecond})
	defer l.Close()
	lsn, ack, err := l.Append(RecPublish, []byte("timed"))
	if err != nil {
		t.Fatal(err)
	}
	if ack != nil {
		t.Fatal("interval mode returned a blocking ack")
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().DurableLSN < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("record %d never became durable", lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRotate: after rotation the file is empty, replay returns nothing,
// and LSNs keep rising so checkpoint bookkeeping stays monotonic.
func TestRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := openT(t, path, Options{})
	for i := 0; i < 5; i++ {
		appendAck(t, l, RecPublish, []byte("pre-rotate"))
	}
	if err := l.Rotate(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if lsn := appendAck(t, l, RecPublish, []byte("post-rotate")); lsn != 6 {
		t.Fatalf("post-rotation LSN = %d, want 6", lsn)
	}
	if st := l.Stats(); st.Rotations != 1 {
		t.Fatalf("rotations = %d", st.Rotations)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, path, Options{})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "post-rotate" || recs[0].LSN != 6 {
		t.Fatalf("replay after rotation: %d records %+v", len(recs), recs)
	}
	// Rotating below the last assigned LSN would drop records.
	if err := l2.Rotate(3); err == nil {
		t.Fatal("Rotate accepted an LSN that drops records")
	}
}

// TestCloseIdempotent: double Close is fine, appends after Close fail.
func TestCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := openT(t, path, Options{})
	appendAck(t, l, RecPublish, []byte("x"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(RecPublish, nil); err == nil {
		t.Fatal("Append on a closed log succeeded")
	}
}

// FuzzOpen opens arbitrary file bytes as a log. Open must never panic.
// When it fails the file is untouched. When it succeeds, the records
// carry contiguous LSNs from the header's base+1, and the file is cut to
// exactly their frames: it equals the header plus each record
// re-encoded, and whatever followed in the input is not a good frame.
func FuzzOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), FileName)
	l, _ := openT(f, path, Options{})
	for _, p := range [][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{7}, 300)} {
		appendAck(f, l, RecPublish, p)
	}
	appendAck(f, l, RecDelete, []byte("x"))
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	corrupt := bytes.Clone(good)
	corrupt[headerSize+frameOverhead+5+2] ^= 0xff // inside the second record
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	f.Add(corrupt)
	f.Add(good[:headerSize-1]) // short header

	le := binary.LittleEndian
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, Options{})
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("failed Open (%v) changed the file", err)
			}
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		base := le.Uint64(data[len(Magic):])
		kept := bytes.Clone(data[:headerSize])
		for i, r := range recs {
			if r.LSN != base+1+uint64(i) {
				t.Fatalf("record %d has LSN %d after base %d", i, r.LSN, base)
			}
			kept = append(kept, encodeFrame(r.Type, r.LSN, r.Payload)...)
		}
		if !bytes.Equal(after, kept) || !bytes.HasPrefix(data, kept) {
			t.Fatalf("file cut to %d bytes; its %d records span %d", len(after), len(recs), len(kept))
		}
		rest := data[len(kept):]
		if len(rest) < frameOverhead {
			return
		}
		n := int64(le.Uint32(rest))
		if n >= 9 && n <= maxFrame && int64(len(rest)) >= n+8 &&
			crc32.Checksum(rest[:4+n], castagnoli) == le.Uint32(rest[4+n:]) &&
			le.Uint64(rest[5:]) == base+1+uint64(len(recs)) {
			t.Fatalf("Open cut the log before a good frame with LSN %d", base+1+uint64(len(recs)))
		}
	})
}
