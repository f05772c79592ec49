package riot

// The kill -9 crash-recovery harness: the acceptance test for the
// write-ahead log. TestCrashRecovery re-executes this test binary as a
// child process (TestMain diverts into crashChild when the environment
// variable is set), lets it publish randomized workloads against a
// WAL-backed database while journaling "try"/"ack" lines to plain
// files, SIGKILLs it at a random point, then reopens the database and
// checks the contract:
//
//   - every acknowledged publish is present with correct values
//     (durability),
//   - every present entry has correct values (atomicity — a torn WAL
//     record must never surface as a half-written array),
//   - every acknowledged delete stays deleted,
//   - unacknowledged operations may have landed or not, but nothing
//     in between.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// crashChildEnv carries the database directory into the child process.
const crashChildEnv = "RIOT_CRASH_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
		os.Exit(0) // unreachable: the parent SIGKILLs us
	}
	os.Exit(m.Run())
}

// crashCfg is the machine the harness runs: small blocks so publishes
// span several WAL records' worth of payload quickly.
func crashCfg() Config {
	return Config{BlockElems: 64, MemElems: 1 << 15, WALSync: WALSyncAlways}
}

// arrLen is the deterministic length of the i-th published array.
func arrLen(i int) int64 { return 96 + int64(i%4)*64 }

// arrVal is the deterministic value of element idx of worker w's i-th
// array: it encodes (w, i, idx), so a restored array identifies exactly
// which publish it came from — any mixture of two publishes fails the
// check.
func arrVal(w, i int, idx int64) float64 { return float64(w)*1e7 + float64(i)*1000 + float64(idx) }

// crashChild runs the workload until killed: two concurrent publishers
// (so the WAL's group commit is on the crash path), each journaling
// every operation before ("try") and after ("ack") it completes, with
// periodic deletes and checkpoints thrown in so rotation and
// incremental checkpoints are also mid-flight when the SIGKILL lands.
func crashChild(dir string) {
	db, err := Open(dir, crashCfg())
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go crashWorker(db, dir, w)
	}
	<-done // forever: only SIGKILL ends the child
}

// crashWorker is one publisher loop. Its journal (acks-<w>.log) is
// written sequentially, one line per state change, so the parent can
// reconstruct exactly what was acknowledged before the kill.
func crashWorker(db *DB, dir string, w int) {
	j, err := os.Create(filepath.Join(dir, fmt.Sprintf("acks-%d.log", w)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	logln := func(format string, args ...any) {
		fmt.Fprintf(j, format+"\n", args...)
	}
	s, err := db.NewSession()
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	hot := fmt.Sprintf("w%d-hot", w)
	for i := 0; ; i++ {
		name := fmt.Sprintf("w%d-arr%04d", w, i)
		v, err := s.NewVector(arrLen(i), func(idx int64) float64 { return arrVal(w, i, idx) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		logln("try pub %s %d", name, i)
		if err := s.Publish(name, v); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		logln("ack pub %s %d", name, i)

		hv, err := s.NewVector(64, func(idx int64) float64 { return float64(i) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		logln("try hot %d", i)
		if err := s.Publish(hot, hv); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		logln("ack hot %d", i)

		if i >= 5 && i%10 == 5 {
			victim := fmt.Sprintf("w%d-arr%04d", w, i-5)
			logln("try del %s", victim)
			if _, err := db.Catalog().Delete(victim); err != nil {
				fmt.Fprintln(os.Stderr, "child:", err)
				os.Exit(1)
			}
			logln("ack del %s", victim)
		}
		if i%7 == 6 {
			if err := db.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "child:", err)
				os.Exit(1)
			}
		}
	}
}

// journal is the parsed per-worker operation log.
type journal struct {
	ackedPub   map[string]int // name -> i, acknowledged publishes
	triedPub   map[string]int // name -> i, attempted publishes
	ackedDel   map[string]bool
	triedDel   map[string]bool
	hotTried   int // highest i with "try hot"
	hotAcked   int // highest i with "ack hot"
	anyHotTry  bool
	anyHotAck  bool
	totalAcked int
}

// parseJournal tolerates a torn final line (the kill can land mid-write).
func parseJournal(t *testing.T, path string) journal {
	t.Helper()
	jn := journal{
		ackedPub: map[string]int{}, triedPub: map[string]int{},
		ackedDel: map[string]bool{}, triedDel: map[string]bool{},
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return jn // killed before the worker created its journal
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		switch fields[0] + " " + fields[1] {
		case "try pub", "ack pub":
			if len(fields) != 4 {
				continue
			}
			i, err := strconv.Atoi(fields[3])
			if err != nil {
				continue
			}
			if fields[0] == "try" {
				jn.triedPub[fields[2]] = i
			} else {
				jn.ackedPub[fields[2]] = i
				jn.totalAcked++
			}
		case "try hot", "ack hot":
			if len(fields) != 3 {
				continue
			}
			i, err := strconv.Atoi(fields[2])
			if err != nil {
				continue
			}
			if fields[0] == "try" {
				jn.hotTried, jn.anyHotTry = i, true
			} else {
				jn.hotAcked, jn.anyHotAck = i, true
				jn.totalAcked++
			}
		case "try del":
			if len(fields) == 3 {
				jn.triedDel[fields[2]] = true
			}
		case "ack del":
			if len(fields) == 3 {
				jn.ackedDel[fields[2]] = true
				jn.totalAcked++
			}
		}
	}
	return jn
}

// checkArray verifies a restored array holds exactly publish (w, i).
func checkArray(t *testing.T, s *Session, name string, w, i int) {
	t.Helper()
	v, err := s.Lookup(name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	vals, err := v.Values()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if int64(len(vals)) != arrLen(i) {
		t.Fatalf("%s: %d values, want %d", name, len(vals), arrLen(i))
	}
	for idx, got := range vals {
		if want := arrVal(w, i, int64(idx)); got != want {
			t.Fatalf("%s[%d] = %g, want %g (publish w=%d i=%d)", name, idx, got, want, w, i)
		}
	}
}

// TestCrashRecovery is the harness driver: see the file comment. CI runs
// it with -count=10 for ten independent randomized kill points.
func TestCrashRecovery(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL harness is POSIX-only")
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("harness seed %d", seed)
	for attempt := 0; attempt < 5; attempt++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The randomized kill point: anywhere from "barely started" to
		// "dozens of publishes and a few checkpoints in".
		time.Sleep(time.Duration(20+rng.Intn(180)) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // reaps the SIGKILLed child; its error is expected

		total := 0
		journals := make([]journal, 2)
		for w := range journals {
			journals[w] = parseJournal(t, filepath.Join(dir, fmt.Sprintf("acks-%d.log", w)))
			total += journals[w].totalAcked
		}
		if total == 0 {
			continue // killed before the first ack: nothing to verify, go again
		}
		verifyRecovery(t, dir, journals)
		return
	}
	t.Fatal("child never acknowledged an operation before the kill in 5 attempts")
}

// verifyRecovery reopens the database the child died in and checks the
// durability contract against the journals.
func verifyRecovery(t *testing.T, dir string, journals []journal) {
	t.Helper()
	db, err := Open(dir, crashCfg())
	if err != nil {
		t.Fatalf("reopen after kill -9: %v", err)
	}
	defer db.Close()
	s, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	present := make(map[string]bool)
	for _, name := range db.Names() {
		present[name] = true
	}
	for w, jn := range journals {
		// Durability: every acknowledged publish survives with correct
		// values, unless an acknowledged delete removed it.
		for name, i := range jn.ackedPub {
			if jn.ackedDel[name] {
				continue
			}
			if !present[name] {
				if jn.triedDel[name] {
					continue // an in-flight delete may have landed
				}
				t.Fatalf("acknowledged publish %s (i=%d) lost after kill -9", name, i)
			}
			checkArray(t, s, name, w, i)
		}
		// Acknowledged deletes stay deleted (arr names are never
		// republished).
		for name := range jn.ackedDel {
			if present[name] {
				t.Fatalf("acknowledged delete of %s undone by replay", name)
			}
		}
		// Atomicity: anything present must be a complete, value-correct
		// publish that was at least attempted.
		for name := range present {
			if !strings.HasPrefix(name, fmt.Sprintf("w%d-arr", w)) {
				continue
			}
			i, tried := jn.triedPub[name]
			if !tried {
				t.Fatalf("entry %s exists but was never attempted", name)
			}
			checkArray(t, s, name, w, i)
		}
		// The hot (republished) name: its surviving version must be one
		// that was attempted, and at least as new as the last ack.
		if present[fmt.Sprintf("w%d-hot", w)] {
			v, err := s.Lookup(fmt.Sprintf("w%d-hot", w))
			if err != nil {
				t.Fatal(err)
			}
			vals, err := v.Values()
			if err != nil {
				t.Fatal(err)
			}
			got := int(vals[0])
			if jn.anyHotAck && got < jn.hotAcked {
				t.Fatalf("w%d-hot rolled back to i=%d; i=%d was acknowledged", w, got, jn.hotAcked)
			}
			if got > jn.hotTried {
				t.Fatalf("w%d-hot at i=%d, but only i<=%d was ever tried", w, got, jn.hotTried)
			}
		} else if jn.anyHotAck {
			t.Fatalf("w%d-hot lost after kill -9; i=%d was acknowledged", w, jn.hotAcked)
		}
	}
}

// TestWALSyncOffMatchesLegacy: with the WAL off no log file appears, no
// WAL stats are reported, durability is exactly checkpoint-granular, and
// the checkpoint is the same manifest every WAL mode writes.
func TestWALSyncOffMatchesLegacy(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Config{BlockElems: 64, MemElems: 1 << 15, WALSync: WALSyncOff})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.SeqVector(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Publish("x", v); err != nil {
		t.Fatal(err)
	}
	if _, on := db.WALStats(); on {
		t.Fatal("WALSyncOff database reports an active WAL")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.riot")); !os.IsNotExist(err) {
		t.Fatalf("WALSyncOff wrote a wal file (err=%v)", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint is the one catalog format.
	f, err := os.Open(filepath.Join(dir, "catalog.riot"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	magic := make([]byte, 8)
	if _, err := f.Read(magic); err != nil {
		t.Fatal(err)
	}
	if string(magic) != "RIOTCAT2" {
		t.Fatalf("WALSyncOff checkpoint magic %q, want RIOTCAT2", magic)
	}
}
