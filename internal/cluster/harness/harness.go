// Package harness spins up an N-node in-process RIOT cluster for
// tests: one coordinator and N cluster nodes, each over its own
// riot.Session, wired by net.Pipe — no sockets, no cluster
// infrastructure, fully deterministic placement from a seed, and a
// fault Injector per node that can drop frames, delay a peer, or kill
// it mid-query. Every distributed code path runs under `go test -race`
// this way.
package harness

import (
	"fmt"
	"net"
	"sync"
	"time"

	"riot"
	"riot/internal/cluster"
)

// Options configures an in-process cluster.
type Options struct {
	// Nodes is the cluster size (default 1).
	Nodes int
	// Config is the session configuration shared by the coordinator and
	// every node. Tests asserting bit-identical results set Workers: 1
	// and leave Readahead off, the deterministic execution mode.
	Config riot.Config
	// Seed salts the placement ring: same seed + same node count =
	// same placement, in any process.
	Seed string
	// Replicas is the ring's virtual-node count (0 = default).
	Replicas int
	// Timeout bounds each coordinator round trip (default 5s — short
	// enough that a killed peer surfaces quickly in tests).
	Timeout time.Duration
	// Retries is how many times the coordinator re-places a failed
	// shard onto survivors (default 0: fail fast).
	Retries int
}

// Cluster is a running in-process cluster.
type Cluster struct {
	// Coord scatters and gathers; Sess is its local session, which holds
	// gathered results.
	Coord *cluster.Coordinator
	Sess  *riot.Session

	nodes     []*cluster.Node
	nodeSess  []*riot.Session
	injectors []*Injector
	serving   sync.WaitGroup
}

// Start builds the cluster: N nodes over net.Pipe, handshaken and
// joined to the coordinator's placement ring as "node0".."nodeN-1".
func Start(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	blockElems := opts.Config.BlockElems
	if blockElems <= 0 {
		blockElems = 1024
	}
	coordSess := riot.NewSession(opts.Config)
	c := &Cluster{
		Sess: coordSess,
		Coord: cluster.NewCoordinator(coordSess, cluster.Options{
			ID:         "coordinator",
			Seed:       opts.Seed,
			Replicas:   opts.Replicas,
			BlockElems: blockElems,
			Timeout:    opts.Timeout,
			Retries:    opts.Retries,
		}),
	}
	for i := 0; i < opts.Nodes; i++ {
		id := fmt.Sprintf("node%d", i)
		sess := riot.NewSession(opts.Config)
		node := cluster.NewNode(id, sess)
		coordEnd, nodeEnd := net.Pipe()
		inj := &Injector{conn: nodeEnd}
		c.nodes = append(c.nodes, node)
		c.nodeSess = append(c.nodeSess, sess)
		c.injectors = append(c.injectors, inj)
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			node.ServeConn(&faultConn{Conn: nodeEnd, inj: inj})
		}()
		if err := c.Coord.AddPeer(id, coordEnd); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Node returns the i-th node (for Held/ID inspection).
func (c *Cluster) Node(i int) *cluster.Node { return c.nodes[i] }

// NodeSession returns the i-th node's session (for Report counters).
func (c *Cluster) NodeSession(i int) *riot.Session { return c.nodeSess[i] }

// Injector returns the i-th node's fault injector.
func (c *Cluster) Injector(i int) *Injector { return c.injectors[i] }

// Close tears the cluster down: coordinator connections, node serving
// loops, and every session.
func (c *Cluster) Close() {
	c.Coord.Close()
	for _, inj := range c.injectors {
		inj.Kill()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	c.serving.Wait()
	for _, s := range c.nodeSess {
		s.Close()
	}
	c.Sess.Close()
}

// Injector injects faults into one node's connection: delay every
// transfer, silently drop written response frames, or kill the
// connection outright — immediately or after a counted number of reads
// (to land the kill mid-scatter or mid-gather deterministically).
type Injector struct {
	mu         sync.Mutex
	conn       net.Conn
	delay      time.Duration
	dropWrites int
	killAfter  int // reads remaining before the kill; 0 = disarmed
	killWrites int // writes remaining before the kill; 0 = disarmed
	killed     bool
}

// Kill severs the node's connection now. Both ends fail their next
// transfer; the coordinator sees a dead peer.
func (j *Injector) Kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.killLocked()
}

func (j *Injector) killLocked() {
	if !j.killed {
		j.killed = true
		j.conn.Close()
	}
}

// KillAfterReads arms a deferred kill: the connection is severed before
// the node's n-th subsequent Read — counted from now, so tests arm it
// after the handshake and land the kill mid-query.
func (j *Injector) KillAfterReads(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.killAfter = n
}

// KillAfterWrites arms a deferred kill on the write side: the
// connection is severed right after the node's n-th subsequent Write
// completes. A node's bare acknowledgement is one write, so this lands a
// kill just after the coordinator has seen the node accept a push.
func (j *Injector) KillAfterWrites(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.killWrites = n
}

// Delay makes every subsequent transfer on the node's connection wait d
// first — a slow peer, not a dead one.
func (j *Injector) Delay(d time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.delay = d
}

// DropNextWrites silently discards the node's next n written frames:
// the node believes it answered; the coordinator waits until its
// deadline and treats the peer as dead.
func (j *Injector) DropNextWrites(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dropWrites = n
}

// faultConn applies an Injector's faults to a net.Conn.
type faultConn struct {
	net.Conn
	inj *Injector
}

// Read counts down an armed deferred kill, applies the configured
// delay, then reads from the underlying connection.
func (f *faultConn) Read(b []byte) (int, error) {
	j := f.inj
	j.mu.Lock()
	if j.killAfter > 0 {
		j.killAfter--
		if j.killAfter == 0 {
			j.killLocked()
		}
	}
	d := j.delay
	j.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return f.Conn.Read(b)
}

// Write counts down an armed write-side kill, applies the configured
// delay, then either forwards the bytes or silently discards them when a
// drop is armed, and finally fires the kill if this was the counted
// write.
func (f *faultConn) Write(b []byte) (int, error) {
	j := f.inj
	j.mu.Lock()
	drop := j.dropWrites > 0
	if drop {
		j.dropWrites--
	}
	// Count the write on entry: a write whose bytes the coordinator has
	// already read has always been counted, so arming a kill after a
	// round trip never counts that round trip's writes.
	kill := false
	if j.killWrites > 0 {
		j.killWrites--
		kill = j.killWrites == 0
	}
	d := j.delay
	j.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	n, err := len(b), error(nil)
	if !drop {
		n, err = f.Conn.Write(b)
	}
	if kill {
		j.Kill()
	}
	return n, err
}
