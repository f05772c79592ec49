package harness

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"riot"
)

// lcg is a deterministic value generator so coordinator, nodes, and the
// single-node reference all build the same operands.
func lcg(tag, i, j int64) uint64 {
	x := uint64(tag)*0x9e3779b97f4a7c15 + uint64(i)*0x2545f4914f6cdd1d + uint64(j) + 1
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// denseGen fills every element with a small deterministic value.
func denseGen(tag int64) func(i, j int64) float64 {
	return func(i, j int64) float64 {
		return float64(lcg(tag, i, j)%1000)/8 - 60
	}
}

// sparseGen keeps ~10% of elements; the stored-zero convention means a
// zero is "no entry" under every ring.
func sparseGen(tag int64) func(i, j int64) float64 {
	return func(i, j int64) float64 {
		x := lcg(tag, i, j)
		if x%10 != 0 {
			return 0
		}
		return float64(x%500)/4 + 1
	}
}

func deterministicCfg() riot.Config {
	// Workers:1 + Readahead off is the engine's deterministic execution
	// mode: the single-node result is byte-for-byte reproducible, so
	// bit-identity across the cluster is a meaningful assertion.
	return riot.Config{Workers: 1}
}

// buildPair builds A (l×m) and B (m×k) in one session.
func buildPair(t *testing.T, s *riot.Session, l, m, k int64, sparse bool, ring string) (*riot.Matrix, *riot.Matrix) {
	t.Helper()
	gen := denseGen
	if sparse {
		gen = sparseGen
	}
	a, err := s.NewMatrix(l, m, gen(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewMatrix(m, k, gen(2))
	if err != nil {
		t.Fatal(err)
	}
	if sparse {
		if a, err = a.Sparse(); err != nil {
			t.Fatal(err)
		}
		if b, err = b.Sparse(); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// singleNodeRef computes the reference product in a fresh single
// session under the same deterministic config.
func singleNodeRef(t *testing.T, l, m, k int64, sparse bool, ring string) []float64 {
	t.Helper()
	s := riot.NewSession(deterministicCfg())
	defer s.Close()
	a, b := buildPair(t, s, l, m, k, sparse, ring)
	c, err := a.MatMulRing(b, ring)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := c.Values()
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// The tentpole property: distributed MatMul over dense, sparse, and
// minplus operands is bit-identical to the single-node result at
// Workers:1, for 1-, 2-, and 3-node clusters — including shapes that
// cross tile boundaries (side 32 at the default B=1024), leave most
// nodes with empty shards, or shard the right operand.
func TestDistributedMatMulBitIdentical(t *testing.T) {
	shapes := []struct {
		name    string
		l, m, k int64
	}{
		{"one-elem", 1, 1, 1},      // single band; N-1 nodes idle
		{"in-tile", 7, 5, 9},       // everything inside one tile
		{"tile-cross", 65, 33, 40}, // bands straddle the 32-side tiles
		{"square", 96, 96, 96},     // 3 bands
		{"ship-right", 3, 40, 100}, // B larger: shard B's columns
		{"skewed", 128, 9, 17},     // tall-thin A, 4 bands
		// 32 row bands, the last partial: each peer's share concatenates
		// many non-adjacent bands (≥8 each at N=2, pinned by
		// TestFramesPerMatMulIndependentOfBands).
		{"many-bands", 1000, 64, 16},
		// 32 column bands of B, the last partial: the sparse kinds ship
		// B's columns as nonzeros.
		{"wide-right", 20, 64, 1000},
	}
	kinds := []struct {
		name   string
		sparse bool
		ring   string
	}{
		{"dense", false, ""},
		{"sparse", true, ""},
		{"minplus", false, "minplus"},
		{"sparse-minplus", true, "minplus"},
	}
	for _, kind := range kinds {
		for _, sh := range shapes {
			want := singleNodeRef(t, sh.l, sh.m, sh.k, kind.sparse, kind.ring)
			for nodes := 1; nodes <= 3; nodes++ {
				c, err := Start(Options{Nodes: nodes, Config: deterministicCfg(), Seed: "pr10"})
				if err != nil {
					t.Fatal(err)
				}
				a, b := buildPair(t, c.Sess, sh.l, sh.m, sh.k, kind.sparse, kind.ring)
				got, err := c.Coord.MatMulRing(a, b, kind.ring)
				if err != nil {
					c.Close()
					t.Fatalf("%s/%s N=%d: %v", kind.name, sh.name, nodes, err)
				}
				gv, err := got.Values()
				if err != nil {
					c.Close()
					t.Fatal(err)
				}
				if len(gv) != len(want) {
					c.Close()
					t.Fatalf("%s/%s N=%d: %d values, want %d", kind.name, sh.name, nodes, len(gv), len(want))
				}
				for i := range gv {
					if math.Float64bits(gv[i]) != math.Float64bits(want[i]) {
						c.Close()
						t.Fatalf("%s/%s N=%d: value[%d] = %v, want %v (not bit-identical)",
							kind.name, sh.name, nodes, i, gv[i], want[i])
					}
				}
				c.Close()
			}
		}
	}
}

// Shards and broadcasts are cleaned up after a query: the coordinator
// drops its whole query namespace once the result is assembled.
func TestQueryNamespaceDropped(t *testing.T) {
	c, err := Start(Options{Nodes: 2, Config: deterministicCfg(), Seed: "pr10"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := buildPair(t, c.Sess, 96, 96, 96, false, "")
	if _, err := c.Coord.MatMul(a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if held := c.Node(i).Held(); len(held) != 0 {
			t.Fatalf("node%d still holds %v after the query", i, held)
		}
	}
}

// Explain renders the distributed plan without executing: scatter,
// remote-exec, and gather steps per site, with network blocks beside
// the io and cpu estimates.
func TestExplainRendersNetworkEstimates(t *testing.T) {
	c, err := Start(Options{Nodes: 3, Config: deterministicCfg(), Seed: "pr10"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := buildPair(t, c.Sess, 96, 96, 96, false, "")
	out, err := c.Coord.Explain(a, b, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scatter", "remote-exec", "gather", "net ", "@node", "io ", "cpu "} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
	// Explain must not have executed anything remotely.
	for i := 0; i < 3; i++ {
		if held := c.Node(i).Held(); len(held) != 0 {
			t.Fatalf("Explain pushed state to node%d: %v", i, held)
		}
	}
	if ns := c.Coord.NetStats(); ns.Frames != 0 {
		t.Fatalf("Explain sent %d frames", ns.Frames)
	}

	// On sparse operands the network estimate counts nonzeros, not dense
	// elements: it lands within 2x of the bytes the run then moves.
	sa, sb := buildPair(t, c.Sess, 512, 256, 64, true, "")
	p, err := c.Coord.ExplainPlan(sa, sb, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Coord.MatMul(sa, sb); err != nil {
		t.Fatal(err)
	}
	ns := c.Coord.NetStats()
	measured := float64(ns.BytesSent+ns.BytesRecv) / (8 * 1024) // default B = 1024
	if r := p.EstNetBlocks / measured; r < 0.5 || r > 2 {
		t.Fatalf("estimated %.1f net blocks, measured %.1f (ratio %.2f): want within 2x", p.EstNetBlocks, measured, r)
	}
}

// frameCount runs one distributed multiply and returns the frames it
// cost, checking the product against the single-node reference.
func frameCount(t *testing.T, c *Cluster, l, m, k int64, sparse bool) int64 {
	t.Helper()
	want := singleNodeRef(t, l, m, k, sparse, "")
	a, b := buildPair(t, c.Sess, l, m, k, sparse, "")
	before := c.Coord.NetStats().Frames
	got, err := c.Coord.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	frames := c.Coord.NetStats().Frames - before
	gv, err := got.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%dx%dx%d: value[%d] = %v, want %v", l, m, k, i, gv[i], want[i])
		}
	}
	return frames
}

// Each node's share moves in one round trip of each kind, so the frames
// a multiply costs depend on the number of nodes, not of bands: a
// broadcast push, a share push, an exec and a fetch per participating
// node, plus one namespace drop per live node.
func TestFramesPerMatMulIndependentOfBands(t *testing.T) {
	c, err := Start(Options{Nodes: 2, Config: deterministicCfg(), Seed: "pr10"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Placement of the 32-band shape: each node owns at least 8 bands,
	// and not all adjacent (the label mirrors Coordinator.bands).
	owned := map[string][]int{}
	for band := 0; band < 32; band++ {
		o, _ := c.Coord.Ring().Owner("matmul/L/1000x64x16", band)
		owned[o] = append(owned[o], band)
	}
	for id, bands := range owned {
		if len(bands) < 8 || bands[len(bands)-1]-bands[0] == len(bands)-1 {
			t.Fatalf("%s owns bands %v: want ≥8, not all adjacent", id, bands)
		}
	}
	for _, sparse := range []bool{false, true} {
		few := frameCount(t, c, 64, 64, 16, sparse)    // 2 bands
		many := frameCount(t, c, 1000, 64, 16, sparse) // 32 bands
		wide := frameCount(t, c, 20, 64, 1000, sparse) // 32 column bands
		if many != 10 || wide != 10 || few > 10 {
			t.Fatalf("sparse=%v: frames per multiply %d (2 bands), %d (32 row bands), %d (32 col bands); want ≤10, 10, 10",
				sparse, few, many, wide)
		}
	}
}

// A sparse operand travels as its nonzeros: multiplying a ~1%-dense
// 1024x1024 operand moves well under a fifth of its dense size, with
// the broadcast operand and the gathered product included.
func TestSparseWireBytesScaleWithNNZ(t *testing.T) {
	const l, m, k = 1024, 1024, 8
	gen := func(s *riot.Session) (*riot.Matrix, *riot.Matrix) {
		a, err := s.NewMatrix(l, m, func(i, j int64) float64 {
			if x := lcg(7, i, j); x%100 == 0 {
				return float64(x%50) + 1
			}
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if a, err = a.Sparse(); err != nil {
			t.Fatal(err)
		}
		b, err := s.NewMatrix(m, k, denseGen(8))
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	ref := riot.NewSession(deterministicCfg())
	defer ref.Close()
	ra, rb := gen(ref)
	rp, err := ra.MatMul(rb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rp.Values()
	if err != nil {
		t.Fatal(err)
	}

	c, err := Start(Options{Nodes: 2, Config: deterministicCfg(), Seed: "pr10"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := gen(c.Sess)
	got, err := c.Coord.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	gv, err := got.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value[%d] = %v, want %v", i, gv[i], want[i])
		}
	}
	ns := c.Coord.NetStats()
	wire, dense := ns.BytesSent+ns.BytesRecv, int64(8*l*m)
	if wire*5 > dense {
		t.Fatalf("moved %d bytes for a %d-byte dense operand: want ≤ 0.2x", wire, dense)
	}
}

// A peer killed mid-scatter yields a descriptive error naming the peer
// — promptly (no hang) and with nothing published.
func TestKillMidScatter(t *testing.T) {
	c, err := Start(Options{Nodes: 3, Config: deterministicCfg(), Seed: "pr10", Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := buildPair(t, c.Sess, 96, 96, 96, false, "")
	// Arm the kill on every node so whichever owns the first band dies
	// while its scatter frames are in flight (the handshake is already
	// done; the next reads are query frames).
	for i := 0; i < 3; i++ {
		c.Injector(i).KillAfterReads(2)
	}
	type res struct {
		m   *riot.Matrix
		err error
	}
	done := make(chan res, 1)
	go func() {
		m, err := c.Coord.MatMul(a, b)
		done <- res{m, err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatalf("killed peers, but the query succeeded")
		}
		if r.m != nil {
			t.Fatalf("error return still published a result")
		}
		msg := r.err.Error()
		if !strings.Contains(msg, "cluster: peer node") {
			t.Fatalf("error does not name the dead peer: %v", r.err)
		}
		if !strings.Contains(msg, "result not published") {
			t.Fatalf("error does not state publish was withheld: %v", r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator hung after peer kill")
	}
}

// With Retries > 0, a dead peer's bands are re-placed onto the
// survivors and the query still returns the bit-identical result.
func TestRetryOnPeerDeath(t *testing.T) {
	want := singleNodeRef(t, 96, 96, 96, false, "")
	c, err := Start(Options{Nodes: 3, Config: deterministicCfg(), Seed: "pr10",
		Timeout: 2 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := buildPair(t, c.Sess, 96, 96, 96, false, "")
	// Kill one peer outright before the query: its shard placement is
	// discovered dead on first contact and retried on the survivors.
	c.Injector(1).Kill()
	got, err := c.Coord.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	gv, err := got.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(want[i]) {
			t.Fatalf("retried result diverged at [%d]: %v vs %v", i, gv[i], want[i])
		}
	}
	if peers := c.Coord.Peers(); len(peers) != 2 {
		t.Fatalf("dead peer not removed: %v", peers)
	}

	// A peer killed right after it accepted its share — mid-query, its
	// share installed, before exec — has that share re-placed under
	// fresh names on the survivors, and the result stays bit-identical.
	for _, sparse := range []bool{false, true} {
		want := singleNodeRef(t, 256, 64, 16, sparse, "")
		c, err := Start(Options{Nodes: 3, Config: deterministicCfg(), Seed: "pr10",
			Timeout: 2 * time.Second, Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		a, b := buildPair(t, c.Sess, 256, 64, 16, sparse, "")
		p, err := c.Coord.ExplainPlan(a, b, "")
		if err != nil {
			t.Fatal(err)
		}
		// The first site to own bands dies after two acknowledgements:
		// the broadcast push and its share push.
		victim := -1
		fmt.Sscanf(p.Steps[0].Site, "node%d", &victim)
		c.Injector(victim).KillAfterWrites(2)
		got, err := c.Coord.MatMul(a, b)
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		gv, err := got.Values()
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		for i := range gv {
			if math.Float64bits(gv[i]) != math.Float64bits(want[i]) {
				c.Close()
				t.Fatalf("sparse=%v: retried result diverged at [%d]: %v vs %v", sparse, i, gv[i], want[i])
			}
		}
		received := false
		for _, name := range c.Node(victim).Held() {
			received = received || strings.HasSuffix(name, ".sh")
		}
		peers := c.Coord.Peers()
		c.Close()
		if !received {
			t.Fatalf("sparse=%v: node%d died before it received its share", sparse, victim)
		}
		if len(peers) != 2 {
			t.Fatalf("sparse=%v: dead peer not removed: %v", sparse, peers)
		}
	}
}

// A delayed peer slows its own query down but must not deadlock
// group-commit: publishes on a WAL-backed database proceed while the
// coordinator waits on the slow peer, and the query still completes.
func TestDelayedPeerNoGroupCommitDeadlock(t *testing.T) {
	c, err := Start(Options{Nodes: 2, Config: deterministicCfg(), Seed: "pr10", Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := buildPair(t, c.Sess, 96, 96, 96, false, "")
	c.Injector(0).Delay(5 * time.Millisecond)
	c.Injector(1).Delay(5 * time.Millisecond)

	db, err := riot.Open(t.TempDir(), riot.Config{Workers: 1, WALSync: riot.WALSyncAlways, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var wg sync.WaitGroup
	queryDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Coord.MatMul(a, b)
		queryDone <- err
	}()
	// Two sessions group-committing against the WAL while the slow
	// distributed query is in flight.
	pubErr := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := db.NewSession()
			if err != nil {
				pubErr <- err
				return
			}
			defer sess.Close()
			for i := 0; i < 5; i++ {
				m, err := sess.NewMatrix(8, 8, denseGen(int64(w*10+i)))
				if err != nil {
					pubErr <- err
					return
				}
				if err := sess.PublishMatrix(names[w*5+i], m); err != nil {
					pubErr <- err
					return
				}
			}
			pubErr <- nil
		}(w)
	}
	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-time.After(60 * time.Second):
		t.Fatalf("delayed peer deadlocked the group: query or publishes never finished")
	}
	if err := <-queryDone; err != nil {
		t.Fatalf("delayed query failed: %v", err)
	}
	for w := 0; w < 2; w++ {
		if err := <-pubErr; err != nil {
			t.Fatalf("publish under delay failed: %v", err)
		}
	}
}

// names for the group-commit publishes (catalog names must be simple
// identifiers).
var names = []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9"}
