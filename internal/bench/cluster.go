package bench

import (
	"fmt"
	"io"
	"time"

	"riot"
	"riot/internal/cluster/harness"
)

// ClusterRow is one distributed-matmul ablation measurement: the same
// out-of-core multiply on a single node versus scattered across a
// 2-node in-process cluster.
type ClusterRow struct {
	Mode           string // "single" or "cluster"
	Nodes          int
	WallNS         int64
	TotalIOBytes   int64 // engine I/O summed over all participating sessions
	MaxNodeIOBytes int64 // largest single session's engine I/O — the per-node load
	NetBytes       int64 // coordinator interconnect traffic (0 for single)
}

// ClusterAblation measures what scatter-gather costs and buys: an
// l×m · m×k dense multiply sized well past the buffer pool, run
// single-node and then across a 2-node harness cluster. The shape is
// the one distribution favors — the sharded operand tall, the
// broadcast one small. Each node multiplies only its tile bands of A,
// so the multiply's dominant I/O term (re-reading B once per tile-row
// of A) halves per node; the price is installing the shipped operands
// on each node and moving every band across the interconnect, which
// the total-I/O and net columns make visible. The bench-smoke CI
// assertion pins the balance claim: neither node's I/O exceeds a
// balanced share of the cluster total, and the interconnect traffic is
// nonzero.
func ClusterAblation(w io.Writer) ([]ClusterRow, error) {
	const (
		l          = 512 // sharded dimension: 32 tile-row bands
		m          = 256
		k          = 64      // small broadcast operand
		blockElems = 256     // 16×16 tiles
		memElems   = 1 << 14 // 64 frames: operands do not stay resident
	)
	cfg := riot.Config{BlockElems: blockElems, MemElems: memElems, Workers: 1}
	gen := func(tag int64) func(i, j int64) float64 {
		return func(i, j int64) float64 { return float64((i*31+j*17+tag)%97) / 8 }
	}
	fmt.Fprintf(w, "cluster ablation: %dx%d · %dx%d dense matmul, B=%d elems, pool %d blocks\n",
		l, m, m, k, blockElems, memElems/blockElems)
	fmt.Fprintf(w, "%-8s %6s %12s %14s %14s %12s\n", "mode", "nodes", "wall ms", "total io MB", "max node MB", "net MB")

	var rows []ClusterRow

	// Single node: one session does everything.
	{
		s := riot.NewSession(cfg)
		a, err := s.NewMatrix(l, m, gen(1))
		if err != nil {
			s.Close()
			return nil, err
		}
		b, err := s.NewMatrix(m, k, gen(2))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.ResetStats() // bill the multiply, not operand creation
		start := time.Now()
		c, err := a.MatMul(b)
		if err != nil {
			s.Close()
			return nil, err
		}
		if _, err := c.Values(); err != nil {
			s.Close()
			return nil, err
		}
		wall := time.Since(start).Nanoseconds()
		io := s.Report().IOBytes
		s.Close()
		rows = append(rows, ClusterRow{Mode: "single", Nodes: 1, WallNS: wall,
			TotalIOBytes: io, MaxNodeIOBytes: io})
	}

	// 2-node cluster: the coordinator scatters A's tile bands and
	// broadcasts the small B; each node reduces its partials locally.
	{
		c, err := harness.Start(harness.Options{Nodes: 2, Config: cfg, Seed: "bench"})
		if err != nil {
			return nil, err
		}
		a, err := c.Sess.NewMatrix(l, m, gen(1))
		if err != nil {
			c.Close()
			return nil, err
		}
		b, err := c.Sess.NewMatrix(m, k, gen(2))
		if err != nil {
			c.Close()
			return nil, err
		}
		for i := 0; i < 2; i++ {
			c.NodeSession(i).ResetStats()
		}
		start := time.Now()
		prod, err := c.Coord.MatMul(a, b)
		if err != nil {
			c.Close()
			return nil, err
		}
		if _, err := prod.Values(); err != nil {
			c.Close()
			return nil, err
		}
		wall := time.Since(start).Nanoseconds()
		row := ClusterRow{Mode: "cluster", Nodes: 2, WallNS: wall}
		for i := 0; i < 2; i++ {
			ioBytes := c.NodeSession(i).Report().IOBytes
			row.TotalIOBytes += ioBytes
			if ioBytes > row.MaxNodeIOBytes {
				row.MaxNodeIOBytes = ioBytes
			}
		}
		ns := c.Coord.NetStats()
		row.NetBytes = ns.BytesSent + ns.BytesRecv
		c.Close()
		rows = append(rows, row)
	}

	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6d %12.2f %14.2f %14.2f %12.2f\n",
			r.Mode, r.Nodes, float64(r.WallNS)/1e6,
			float64(r.TotalIOBytes)/(1<<20), float64(r.MaxNodeIOBytes)/(1<<20),
			float64(r.NetBytes)/(1<<20))
	}
	return rows, nil
}
