package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"riot"
	"riot/internal/buffer"
	"riot/internal/disk"
	"riot/internal/engine"
	"riot/internal/exec"
)

// batch is a workload whose unit of work is one program iteration,
// driven in a closed loop by one caller.
type batch interface {
	// iterate runs one iteration and checks its output, returning
	// errWrong (wrapped) when the result is wrong.
	iterate(t Tracer) error
	// between runs before each measured iteration, untimed.
	between() error
	// extras runs the traced-only measurements that are not part of an
	// iteration (plans, baselines); it is called after each traced
	// iteration with a fresh trace.
	extras(t Tracer) error
	// counters snapshots the cumulative counters of every layer the
	// workload touches.
	counters() counters
	close()
}

// counters is a snapshot of cumulative layer counters by name.
type counters map[string]float64

func (c counters) sub(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// batchPhase is what the measured phase of a batch workload recorded.
type batchPhase struct {
	untracedMS, tracedMS []float64
	attempted, failed    int
	wall                 time.Duration
	delta                counters
	spans                []Span
	self                 map[int64]int64
}

// buildRepeated builds a workload instance setupReps times, timing each
// build into res.setupS, and returns the last one; earlier ones are
// closed.
func buildRepeated[T interface{ close() }](res *outcome, build func() (T, error)) (T, error) {
	var inst T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			inst.close()
			runtime.GC() // do not bill the old instance's garbage to the next
		}
		t0 := time.Now()
		var err error
		if inst, err = build(); err != nil {
			return inst, fmt.Errorf("setup: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	return inst, nil
}

// runBatch builds the workload (see buildRepeated), then runs iterations
// until the deadline. Traced runs alternate untraced and traced
// iterations so the trace overhead is measured on the same machine
// state.
func runBatch(o runOpts, res *outcome, setup func() (batch, error)) (*batchPhase, batch, error) {
	b, err := buildRepeated(res, setup)
	if err != nil {
		return nil, nil, err
	}
	var rec *Recorder
	if o.trace {
		rec = NewRecorder()
		res.spans = rec
	}
	ph := &batchPhase{}
	before := b.counters()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ph.attempted == 0 || time.Now().Before(deadline); i++ {
		if err := b.between(); err != nil {
			b.close()
			return nil, nil, err
		}
		traced := rec != nil && i%2 == 1
		tr := Tracer{}
		if traced {
			tr = rec.Trace()
		}
		t0 := time.Now()
		err := tr.Span("bench.iter", b.iterate)
		ms := float64(time.Since(t0)) / 1e6
		ph.attempted++
		switch {
		case err != nil:
			ph.failed++
			if ph.failed <= 3 {
				fmt.Fprintf(os.Stderr, "iteration %d: %v\n", i, err)
			}
		case traced:
			ph.tracedMS = append(ph.tracedMS, ms)
		default:
			ph.untracedMS = append(ph.untracedMS, ms)
		}
		if traced {
			if err := b.extras(rec.Trace()); err != nil {
				b.close()
				return nil, nil, fmt.Errorf("traced extras: %w", err)
			}
		}
	}
	ph.wall = time.Since(start)
	ph.delta = b.counters().sub(before)
	if rec != nil {
		ph.spans = rec.Spans()
		ph.self = selfTimes(ph.spans)
	}
	res.attempted, res.failed = ph.attempted, ph.failed
	res.samplesMS = ph.untracedMS
	ops := float64(ph.attempted)
	t := tail(ph.untracedMS)
	res.e2e["iter_p50_ms"] = median(ph.untracedMS)
	res.e2e["iter_tail_ms"] = t.Value
	res.e2e["ops_per_s"] = ops / ph.wall.Seconds()
	res.e2e["io_mb_per_op"] = ph.delta["io_bytes"] / (1 << 20) / ops
	res.e2e["sim_s_per_op"] = ph.delta["sim_s"] / ops
	res.notes = append(res.notes, latencyNote("iteration", ph.untracedMS))
	if o.trace {
		res.layer["bench.trace_overhead"] = ratio(median(ph.tracedMS), median(ph.untracedMS))
		res.notes = append(res.notes, latencyNote("traced iteration", ph.tracedMS))
	}
	return ph, b, nil
}

// ops is the number of iterations the counter deltas are divided by.
func (ph *batchPhase) ops() float64 { return float64(ph.attempted) }

// layerMS is the median per-iteration self time of a layer's spans.
func (ph *batchPhase) layerMS(layer string) float64 {
	return median(layerSelfMS(ph.spans, ph.self, layer))
}

// storedBytes is the data a standalone session holds on its device.
func storedBytes(s *riot.Session) float64 {
	dev := s.Engine().(*engine.RIOT).Pool().Device()
	return float64(dev.LiveBlocks() * dev.BlockBytes())
}

// engineCounters snapshots a standalone RIOT session: its engine report
// (the paper's ruler), executor, buffer pool and device.
func engineCounters(rt *engine.RIOT) counters {
	rep := rt.Report()
	return mergeCounters(counters{"io_bytes": float64(rep.IOBytes), "sim_s": rep.SimSeconds},
		execCounters(rt.Executor().Stats()), poolCounters(rt.Pool().Stats()), diskCounters(rt.Pool().Device().Stats()))
}

func execCounters(st exec.Stats) counters {
	return counters{
		"exec.elements":     float64(st.ElementsComputed),
		"exec.materialized": float64(st.Materialized),
		"exec.flops":        float64(st.Flops),
	}
}

func poolCounters(st buffer.Stats) counters {
	return counters{
		"pool.hits":      float64(st.Hits),
		"pool.misses":    float64(st.Misses),
		"pool.evictions": float64(st.Evictions),
		"pool.flushes":   float64(st.Flushes),
	}
}

func diskCounters(st disk.Stats) counters {
	return counters{
		"disk.read":    float64(st.BlocksRead),
		"disk.written": float64(st.BlocksWritten),
		"disk.rand":    float64(st.RandReads + st.RandWrites),
		"disk.seq":     float64(st.SeqReads + st.SeqWrites),
	}
}

func mergeCounters(cs ...counters) counters {
	out := counters{}
	for _, c := range cs {
		for k, v := range c {
			out[k] = v
		}
	}
	return out
}

// setStorageLayers fills the exec, buffer and disk per-layer metrics
// from a counter delta over ops operations.
func setStorageLayers(layer map[string]float64, d counters, ops float64) {
	layer["exec.elements"] = d["exec.elements"] / ops
	layer["exec.materialized"] = d["exec.materialized"] / ops
	layer["exec.flops"] = d["exec.flops"] / ops
	layer["buffer.hits"] = d["pool.hits"] / ops
	layer["buffer.misses"] = d["pool.misses"] / ops
	layer["buffer.hit_ratio"] = ratio(d["pool.hits"], d["pool.hits"]+d["pool.misses"])
	layer["buffer.evictions"] = d["pool.evictions"] / ops
	layer["buffer.flushes"] = d["pool.flushes"] / ops
	layer["disk.blocks_read"] = d["disk.read"] / ops
	layer["disk.blocks_written"] = d["disk.written"] / ops
	layer["disk.rand_ratio"] = ratio(d["disk.rand"], d["disk.read"]+d["disk.written"])
}

// simSeconds prices device traffic and flops under the paper's 2009
// time model, the same formula as engine.RIOT.Report.
func simSeconds(seqOps, randOps, flops float64, blockBytes int) float64 {
	tm := engine.DefaultTimeModel
	xfer := float64(blockBytes) / (tm.SeqMBps * (1 << 20))
	return seqOps*xfer + randOps*(tm.RandSeekSec+xfer) + flops/tm.FlopsPerSec
}

// splitmix64 is the input generator: a pure function of (seed, i), so
// the benchmark can recompute any input element for its checks.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform value in [0, 1) for stream (seed, tag, i).
func unit(seed int64, tag, i uint64) float64 {
	h := splitmix64(uint64(seed)*0x100000001b3 ^ splitmix64(tag) ^ splitmix64(i+0x632be59bd9b4e019))
	return float64(h>>11) / (1 << 53)
}
