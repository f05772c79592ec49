package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"riot"
	"riot/internal/server"
)

// serveSizes sizes the riot-serve workload: Vectors published vectors
// of N elements against a pool of M elements, read through a seeded
// index vector of Idx positions.
type serveSizes struct {
	Vectors int
	N, M    int64
	B       int
	Idx     int64
	Clients int
	// Each client runs rounds of Reads reads and one write; every
	// CkptRounds-th round ends with a \checkpoint, and every
	// ReconnectRounds rounds the client reconnects.
	Reads           int
	CkptRounds      int
	ReconnectRounds int
}

var serveFull = serveSizes{Vectors: 8, N: 1 << 19, M: 1 << 20, B: 1024, Idx: 2048,
	Clients: 2, Reads: 4, CkptRounds: 4, ReconnectRounds: 5}

// serveModulus bounds the published values: v<k>[i] = (i·(2k+3)) %% 97
// for 1-based i, so every value is a small integer and every read's sum
// is an exact integer below 1e6, which the server prints exactly.
const serveModulus = 97

func serveMult(k int) int64 { return int64(2*k + 3) }

func serveValue(k int, i int64) float64 { return float64((i * serveMult(k)) % serveModulus) }

type serveOp int

const (
	opRead serveOp = iota
	opWrite
	opCheckpoint
	opPing
)

func (op serveOp) String() string {
	return [...]string{"read", "write", "checkpoint", "ping"}[op]
}

type serve struct {
	sz      serveSizes
	seed    int64
	dir     string
	db      *riot.DB
	srv     *server.Server
	addr    string
	served  chan error
	clients []*server.Client
	// closedFlops holds, per client, the flops of its sessions that
	// reconnects already closed (\stats reports only the live session).
	closedFlops []float64
	idx         []int64
	want        []float64 // expected read result per vector
	perm        []int     // seeded rank → vector for the skewed read choice
	cum         []float64 // cumulative Zipf weights over ranks
	// corrupt rewrites a read's reply before the check (tests only).
	corrupt func(string) string
}

func newServe(seed int64, sz serveSizes, tmp string) (*serve, error) {
	s := &serve{sz: sz, seed: seed, served: make(chan error, 1)}
	rng := rand.New(rand.NewSource(seed))
	s.idx = make([]int64, sz.Idx)
	for j := range s.idx {
		s.idx[j] = 1 + rng.Int63n(sz.N)
	}
	s.want = make([]float64, sz.Vectors)
	for k := range s.want {
		for _, i := range s.idx {
			v := 2*serveValue(k, i) - 50
			if v < 0 {
				v = -v
			}
			s.want[k] += v
		}
	}
	s.perm = rng.Perm(sz.Vectors)
	var total float64
	for r := 0; r < sz.Vectors; r++ {
		total += 1 / float64(r+1)
		s.cum = append(s.cum, total)
	}

	var err error
	if s.dir, err = os.MkdirTemp(tmp, "perfbench-serve-*"); err != nil {
		return nil, err
	}
	s.db, err = riot.Open(s.dir, riot.Config{BlockElems: sz.B, MemElems: sz.M,
		WALSync: riot.WALSyncAlways, ResultCache: true})
	if err == nil {
		err = s.publishBase()
	}
	if err == nil {
		err = s.start()
	}
	if err == nil {
		err = s.warm()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serve) publishBase() error {
	sess, err := s.db.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	for k := 0; k < s.sz.Vectors; k++ {
		k := k
		v, err := sess.NewVector(s.sz.N, func(i int64) float64 { return serveValue(k, i+1) })
		if err != nil {
			return err
		}
		if err := sess.Publish(fmt.Sprintf("v%d", k), v); err != nil {
			return err
		}
	}
	idx, err := sess.NewVector(s.sz.Idx, func(j int64) float64 { return float64(s.idx[j]) })
	if err != nil {
		return err
	}
	return sess.Publish("idx", idx)
}

func (s *serve) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.New(s.db)
	s.addr = ln.Addr().String()
	go func() { s.served <- s.srv.Serve(ln) }()
	for c := 0; c < s.sz.Clients; c++ {
		cl, err := server.Dial(s.addr)
		if err != nil {
			return err
		}
		s.clients = append(s.clients, cl)
	}
	s.closedFlops = make([]float64, len(s.clients))
	return nil
}

// warm reads every vector once from every client so the measured phase
// starts with the result cache populated.
func (s *serve) warm() error {
	for _, cl := range s.clients {
		for k := 0; k < s.sz.Vectors; k++ {
			if err := s.read(cl, k); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (s *serve) readStmt(k int) string {
	return fmt.Sprintf("print(sum(abs(v%d[idx] * 2 - 50)))", k)
}

func (s *serve) writeStmt(k int) string {
	return fmt.Sprintf("v%d <- ((1:%d) * %d) %%%% %d", k, s.sz.N, serveMult(k), serveModulus)
}

// read runs one read statement and checks the printed sum exactly.
func (s *serve) read(cl *server.Client, k int) error {
	out, err := cl.Do(s.readStmt(k))
	if err != nil {
		return err
	}
	if s.corrupt != nil {
		out = s.corrupt(out)
	}
	got, err := parsePrinted(out)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	if got != s.want[k] {
		return fmt.Errorf("%w: read of v%d = %v, want %v", errWrong, k, got, s.want[k])
	}
	return nil
}

// parsePrinted extracts the scalar from a "[1] <value>" reply.
func parsePrinted(out string) (float64, error) {
	f := strings.Fields(out)
	if len(f) != 2 || f[0] != "[1]" {
		return 0, fmt.Errorf("unexpected reply %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

func (s *serve) pickRead(rng *rand.Rand) int {
	u := rng.Float64() * s.cum[len(s.cum)-1]
	for r, c := range s.cum {
		if u < c {
			return s.perm[r]
		}
	}
	return s.perm[len(s.perm)-1]
}

func (s *serve) do(cl *server.Client, op serveOp, rng *rand.Rand) error {
	switch op {
	case opRead:
		return s.read(cl, s.pickRead(rng))
	case opWrite:
		_, err := cl.Do(s.writeStmt(rng.Intn(s.sz.Vectors)))
		return err
	case opCheckpoint:
		_, err := cl.Do(`\checkpoint`)
		return err
	default:
		_, err := cl.Do("p <- 1")
		return err
	}
}

var flopsRE = regexp.MustCompile(`flops=(\d+)`)

// sessionFlops reads a connection's session flop counter from \stats.
func sessionFlops(cl *server.Client) (float64, error) {
	out, err := cl.Do(`\stats`)
	if err != nil {
		return 0, err
	}
	m := flopsRE.FindStringSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("no flops in \\stats reply %q", out)
	}
	return strconv.ParseFloat(m[1], 64)
}

// flops sums the flops of every client session, closed ones included.
func (s *serve) flops() (float64, error) {
	var total float64
	for c, cl := range s.clients {
		v, err := sessionFlops(cl)
		if err != nil {
			return 0, err
		}
		total += v + s.closedFlops[c]
	}
	return total, nil
}

func (s *serve) counters() (counters, error) {
	dev := s.db.Pool().Device()
	c := mergeCounters(poolCounters(s.db.Pool().Stats()), diskCounters(dev.Stats()))
	c["io_bytes"] = float64(dev.Stats().TotalBytes())
	if st, ok := s.db.WALStats(); ok {
		c["wal.appends"] = float64(st.Appends)
		c["wal.bytes"] = float64(st.AppendedBytes)
		c["wal.fsyncs"] = float64(st.Fsyncs)
		c["wal.acks"] = float64(st.GroupedAcks)
	}
	if st, ok := s.db.CacheStats(); ok {
		c["cache.hits"] = float64(st.Hits)
		c["cache.misses"] = float64(st.Misses)
		c["cache.invalidations"] = float64(st.Invalidations)
		c["cache.evictions"] = float64(st.Evictions)
		c["cache.rejected"] = float64(st.Rejected)
	}
	fl, err := s.flops()
	c["flops"] = fl
	return c, err
}

func (s *serve) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// reconnect replaces client c's connection. The DB frees a superseded
// catalog version only once every session that could still read it has
// closed, so long-lived connections would pin every version written
// during the run.
func (s *serve) reconnect(c int) error {
	fl, err := sessionFlops(s.clients[c])
	if err != nil {
		return err
	}
	s.closedFlops[c] += fl
	s.clients[c].Close()
	cl, err := server.Dial(s.addr)
	if err != nil {
		return err
	}
	s.clients[c] = cl
	return nil
}

// servePhase is what one client recorded in the measured phase.
type servePhase struct {
	roundMS   []float64    // untraced rounds
	tracedMS  []float64    // traced rounds
	ms        [4][]float64 // untraced statement latency by type
	attempted int          // statements
	failed    int
	firstErr  error
}

func (ph *servePhase) fail(err error) {
	ph.failed++
	if ph.firstErr == nil {
		ph.firstErr = err
	}
}

func runServe(o runOpts) (*outcome, error) { return runServeSized(o, serveFull, os.TempDir(), nil) }

// runServeSized runs the workload at the given sizes with its database
// under tmp; corrupt, when set, rewrites every measured read's reply
// before its check.
func runServeSized(o runOpts, sz serveSizes, tmp string, corrupt func(string) string) (*outcome, error) {
	res := newOutcome()
	res.sizes = map[string]any{"B": sz.B, "M": sz.M, "vectors": sz.Vectors, "n": sz.N, "idx": sz.Idx,
		"clients": sz.Clients, "reads_per_round": sz.Reads, "checkpoint_rounds": sz.CkptRounds,
		"reconnect_rounds": sz.ReconnectRounds}
	s, err := buildRepeated(res, func() (*serve, error) { return newServe(o.seed, sz, tmp) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.corrupt = corrupt

	var rec *Recorder
	if o.trace {
		rec = NewRecorder()
		res.spans = rec
	}
	before, err := s.counters()
	if err != nil {
		return nil, err
	}
	phases := make([]servePhase, len(s.clients))
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(c, rec, deadline, &phases[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	after, err := s.counters()
	if err != nil {
		return nil, err
	}
	d := after.sub(before)

	var rounds, tracedRounds []float64
	var all [4][]float64
	for _, ph := range phases {
		res.attempted += ph.attempted
		res.failed += ph.failed
		if ph.firstErr != nil {
			fmt.Fprintln(os.Stderr, "first failure:", ph.firstErr)
		}
		rounds = append(rounds, ph.roundMS...)
		tracedRounds = append(tracedRounds, ph.tracedMS...)
		for op := range ph.ms {
			all[op] = append(all[op], ph.ms[op]...)
		}
	}
	ops := float64(res.attempted)
	res.samplesMS = rounds
	res.e2e["iter_p50_ms"] = median(rounds)
	res.e2e["iter_tail_ms"] = tail(rounds).Value
	res.e2e["ops_per_s"] = ops / wall.Seconds()
	res.e2e["io_mb_per_op"] = d["io_bytes"] / (1 << 20) / ops
	res.e2e["sim_s_per_op"] = simSeconds(d["disk.seq"], d["disk.rand"], d["flops"], sz.B*8) / ops
	res.notes = append(res.notes, latencyNote("round", rounds))
	for op := opRead; op <= opCheckpoint; op++ {
		res.notes = append(res.notes, latencyNote(op.String(), all[op]))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%-34s %14.6g ms", "read_p50_ms", median(all[opRead])),
		fmt.Sprintf("%-34s %14.6g ms", "read_tail_ms", tail(all[opRead]).Value),
		fmt.Sprintf("%-34s %14.6g ms", "write_p50_ms", median(all[opWrite])),
		fmt.Sprintf("%-34s %14.6g ms", "write_tail_ms", tail(all[opWrite]).Value))

	l := res.layer
	setStorageLayers(l, d, ops)
	l["disk.live_mb"] = float64(s.db.Pool().Device().LiveBlocks()) * float64(sz.B*8) / (1 << 20)
	dirB, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	userBytes := float64(int64(sz.Vectors)*sz.N+sz.Idx) * 8
	l["catalog.dir_bytes_per_user_byte"] = float64(dirB) / userBytes
	writes := float64(len(all[opWrite]))
	l["wal.appends"] = d["wal.appends"] / ops
	l["wal.fsyncs"] = d["wal.fsyncs"] / ops
	l["wal.acks_per_fsync"] = ratio(d["wal.acks"], d["wal.fsyncs"])
	l["wal.bytes_per_user_byte"] = ratio(d["wal.bytes"], writes*float64(sz.N)*8)
	l["rescache.hit_ratio"] = ratio(d["cache.hits"], d["cache.hits"]+d["cache.misses"])
	l["rescache.invalidations"] = d["cache.invalidations"] / ops
	l["rescache.evictions"] = d["cache.evictions"] / ops
	l["rescache.rejected"] = d["cache.rejected"] / ops
	if o.trace {
		spans := rec.Spans()
		l["catalog.checkpoint_ms"] = median(spanMS(spans, "catalog.checkpoint"))
		l["server.ping_p50_ms"] = median(spanMS(spans, "server.ping"))
		reads, writesMS := spanMS(spans, "server.read"), spanMS(spans, "server.write")
		l["server.read_p50_ms"] = median(reads)
		l["server.read_tail_ms"] = tail(reads).Value
		l["server.write_p50_ms"] = median(writesMS)
		l["server.write_tail_ms"] = tail(writesMS).Value
		l["bench.trace_overhead"] = ratio(median(tracedRounds), median(rounds))
		res.notes = append(res.notes, latencyNote("traced round", tracedRounds))
	}
	return res, nil
}

// spanName is the span each statement type is recorded under.
var spanName = [...]string{"server.read", "server.write", "catalog.checkpoint", "server.ping"}

// round is the statement sequence of one client round: reads around one
// write, and a trailing checkpoint on every CkptRounds-th round.
func (s *serve) round(r int) []serveOp {
	ops := make([]serveOp, 0, s.sz.Reads+2)
	for i := 0; i < s.sz.Reads; i++ {
		if i == s.sz.Reads/2 {
			ops = append(ops, opWrite)
		}
		ops = append(ops, opRead)
	}
	if r%s.sz.CkptRounds == s.sz.CkptRounds-1 {
		ops = append(ops, opCheckpoint)
	}
	return ops
}

// client runs client c's closed loop of rounds until the deadline. In
// traced runs blocks of CkptRounds rounds alternate between untraced and
// traced, so both halves hold the same share of checkpoints; every
// traced round is followed by a traced ping.
func (s *serve) client(c int, rec *Recorder, deadline time.Time, ph *servePhase) {
	rng := rand.New(rand.NewSource(s.seed*1000003 + int64(c) + 1))
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		if r > 0 && r%s.sz.ReconnectRounds == 0 {
			if err := s.reconnect(c); err != nil {
				ph.attempted++
				ph.fail(err)
				return
			}
		}
		cl := s.clients[c]
		traced := rec != nil && (r/s.sz.CkptRounds)%2 == 1
		tr := Tracer{}
		if traced {
			tr = rec.Trace()
		}
		ok := true
		t0 := time.Now()
		_ = tr.Span("bench.round", func(tr Tracer) error {
			for _, op := range s.round(r) {
				t1 := time.Now()
				err := tr.Span(spanName[op], func(Tracer) error { return s.do(cl, op, rng) })
				ph.attempted++
				if err != nil {
					ph.fail(err)
					ok = false
				} else if !traced {
					ph.ms[op] = append(ph.ms[op], float64(time.Since(t1))/1e6)
				}
			}
			return nil
		})
		ms := float64(time.Since(t0)) / 1e6
		switch {
		case !ok:
		case traced:
			ph.tracedMS = append(ph.tracedMS, ms)
		default:
			ph.roundMS = append(ph.roundMS, ms)
		}
		if traced {
			// Pings probe the protocol alone and are not part of the
			// mix: a failed one still counts against the run.
			if err := rec.Trace().Span(spanName[opPing], func(Tracer) error { return s.do(cl, opPing, rng) }); err != nil {
				ph.attempted++
				ph.fail(err)
			}
		}
	}
}
