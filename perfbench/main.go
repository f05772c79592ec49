// Command perfbench is the repository's benchmark. It drives RIOT from
// outside through its public API (riot.Session, riot.DB, the riot-serve
// client and the in-process cluster harness), checks every result, and
// prints one JSON line of metrics.
//
//	go run . --workload example1-ooc --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it interleaves traced and untraced iterations and
// reports the per-layer metrics, whose times come only from the traced
// ones. Both modes also write a result file with a metadata header (and,
// traced, the span log) under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// errWrong marks an operation that completed but returned a wrong
// result; it counts against error_ratio like a failure.
var errWrong = errors.New("wrong result")

// setupReps is how many times a run builds its workload; setup_s is the
// median, and only the last instance is measured.
const setupReps = 5

// metric names and units. The JSON line reports every end-to-end metric
// untraced and every per-layer metric traced, for every workload: a
// layer a workload leaves idle reports 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"iter_p50_ms", "ms"},
	{"iter_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"io_mb_per_op", "MB"},
	{"sim_s_per_op", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"rlang.lazy_stmt_ms", "ms"},
	{"plan.plan_ms", "ms"},
	{"plan.est_over_actual_blocks", "ratio"},
	{"exec.force_ms", "ms"},
	{"exec.melem_per_s", "Melem/s"},
	{"exec.elements", "count/op"},
	{"exec.materialized", "count/op"},
	{"exec.flops", "count/op"},
	{"linalg.matmul_ms", "ms"},
	{"linalg.gflops", "GFLOP/s"},
	{"engine.fetch_ms", "ms"},
	{"engine.fetch_pins_per_elem", "ratio"},
	{"engine.live_mb_per_op", "MB/op"},
	{"buffer.hits", "count/op"},
	{"buffer.misses", "count/op"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.evictions", "count/op"},
	{"buffer.flushes", "count/op"},
	{"disk.blocks_read", "count/op"},
	{"disk.blocks_written", "count/op"},
	{"disk.rand_ratio", "ratio"},
	{"disk.live_mb", "MB"},
	{"catalog.checkpoint_ms", "ms"},
	{"catalog.dir_bytes_per_user_byte", "ratio"},
	{"wal.appends", "count/op"},
	{"wal.fsyncs", "count/op"},
	{"wal.acks_per_fsync", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.invalidations", "count/op"},
	{"rescache.evictions", "count/op"},
	{"rescache.rejected", "count/op"},
	{"server.ping_p50_ms", "ms"},
	{"server.read_p50_ms", "ms"},
	{"server.read_tail_ms", "ms"},
	{"server.write_p50_ms", "ms"},
	{"server.write_tail_ms", "ms"},
	{"cluster.matmul_ms", "ms"},
	{"cluster.net_mb", "MB/op"},
	{"cluster.frames", "count/op"},
	{"cluster.net_per_operand_byte", "ratio"},
	{"cluster.max_node_io_mb", "MB/op"},
	{"cluster.busiest_share", "ratio"},
	{"cluster.local_ms", "ms"},
	{"cluster.node_live_mb_per_op", "MB/op"},
	{"bench.trace_overhead", "ratio"},
}

type metricDef struct{ name, unit string }

// runOpts is what every workload receives from the command line.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload's measured phase produced.
type outcome struct {
	attempted, failed int
	setupS            []float64
	e2e               map[string]float64
	layer             map[string]float64
	sizes             map[string]any // B, M and input sizes, for the header
	notes             []string       // human-readable lines (tail rank, read/write split, …)
	samplesMS         []float64      // untraced iteration latencies, in completion order
	spans             *Recorder
}

type workload struct {
	name string
	run  func(runOpts) (*outcome, error)
}

// workloads are described in METRICS.md and BENCHMARK.json.
var workloads = []workload{
	{"example1-ooc", runExample1},
	{"matrix-chain", runChain},
	{"serve-mixed", runServe},
	{"cluster-graph", runGraph},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1}, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, o runOpts, outDir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.name
		}
		return fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
	}
	start := time.Now()
	res, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if res.attempted < 1 {
		return fmt.Errorf("%s: no operation completed in %.1fs", name, o.seconds)
	}
	res.e2e["setup_s"] = median(res.setupS)
	res.e2e["peak_rss_mb"] = peakRSSMB()

	defs, vals := endToEnd, res.e2e
	if o.trace {
		defs, vals = perLayer, res.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}

	meta := metadata(w, o, res)
	if err := writeResult(outDir, w.name, o, meta, res, metrics); err != nil {
		return err
	}
	hdr, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", hdr)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	printMetrics(defs, vals)
	fmt.Printf("error_ratio %.6f (%d failed of %d attempted); wall %.1fs\n",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, time.Since(start).Seconds())
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// metadata is the header of every result file.
func metadata(w *workload, o runOpts, res *outcome) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"sizes":      res.sizes,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit identifies the measured source tree: BENCH_COMMIT when the
// caller sets it (run.sh does, from git), else "unknown".
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func writeResult(dir, name string, o runOpts, meta map[string]any, res *outcome, metrics map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, o.seed, b2i(o.trace)))
	doc := map[string]any{
		"meta":      meta,
		"notes":     res.notes,
		"attempted": res.attempted,
		"failed":    res.failed,
		"setup_s":   res.setupS,
		"iter_ms":   res.samplesMS,
		"metrics":   metrics,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if res.spans == nil {
		return nil
	}
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	if err := res.spans.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// newOutcome returns an outcome whose per-layer map already holds 0 for
// every layer metric, so a workload sets only the layers it exercises.
func newOutcome() *outcome {
	res := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, sizes: map[string]any{}}
	for _, d := range perLayer {
		res.layer[d.name] = 0
	}
	return res
}

// latencyNote renders a latency sample's median and tail with the tail
// rank and sample count, for the log and the result file.
func latencyNote(label string, ms []float64) string {
	t := tail(ms)
	return fmt.Sprintf("%s: p50 %.3f ms, tail p%.1f %.3f ms (n=%d, %d beyond)",
		label, median(ms), t.Percentile, t.Value, t.N, t.Beyond)
}
