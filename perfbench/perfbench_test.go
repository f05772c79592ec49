package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{100, 90, 90, 10},
		{11, 1, 100.0 / 11, 10},
		{250, 240, 96, 10},
		{10, 10, 100, 0}, // too few samples: the maximum, flagged
		{1, 1, 100, 0},
	}
	for _, c := range cases {
		got := tail(ramp(c.n))
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.n ||
			!relClose(got.Percentile, c.pct, 1e-12, 0) {
			t.Errorf("tail of %d samples = %+v, want value %v at p%.3f with %d beyond",
				c.n, got, c.value, c.pct, c.beyond)
		}
	}
	if got := tail(nil); got.N != 0 || got.Value != 0 {
		t.Errorf("tail(nil) = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 2, Trace: 1, Name: "a1", Start: 15, End: 20}, // nested in a
		{ID: 5, Parent: 1, Trace: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 6, Parent: 1, Trace: 1, Name: "d", Start: 35, End: 45},  // inside a ∪ b
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - 50 - 10, // [10,60) and [90,100) covered
		2: 30 - 5,
		3: 30,
		4: 5,
		5: 30,
		6: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderLinksSpans(t *testing.T) {
	rec := NewRecorder()
	tr := rec.Trace()
	err := tr.Span("bench.iter", func(t1 Tracer) error {
		if err := t1.Span("exec.a", func(Tracer) error { return nil }); err != nil {
			return err
		}
		return t1.Span("exec.b", func(t2 Tracer) error {
			return t2.Span("disk.c", func(Tracer) error { return nil })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rec.Trace().Span("other", func(Tracer) error { return nil })
	spans := rec.Spans()
	if len(spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	root := byName["bench.iter"]
	if root.Parent != 0 || byName["exec.a"].Parent != root.ID || byName["exec.b"].Parent != root.ID ||
		byName["disk.c"].Parent != byName["exec.b"].ID {
		t.Errorf("parent links wrong: %+v", spans)
	}
	for _, n := range []string{"exec.a", "exec.b", "disk.c"} {
		if byName[n].Trace != root.Trace {
			t.Errorf("span %s in trace %d, want %d", n, byName[n].Trace, root.Trace)
		}
	}
	if byName["other"].Trace == root.Trace {
		t.Error("a new trace reused the previous trace id")
	}
	var b strings.Builder
	if err := rec.writeJSONL(&b); err != nil || strings.Count(b.String(), "\n") != 5 {
		t.Errorf("writeJSONL: %v: %q", err, b.String())
	}

	var off Tracer
	called := false
	if err := off.Span("x", func(Tracer) error { called = true; return nil }); err != nil || !called || off.rec != nil {
		t.Error("the zero Tracer must run the call without recording")
	}
}

// Tiny sizes: every workload's output check runs in well under a second.
var (
	example1Tiny = example1Sizes{N: 4096, M: 1024, B: 256, Samples: 10}
	chainTiny    = chainSizes{N: 64, M: 2048, B: 256, RestartEvery: 3}
	graphTiny    = graphSizes{N: 128, K: 8, Density: 0.05, Nodes: 2, M: 4096, B: 256, RestartEvery: 3}
	serveTiny    = serveSizes{Vectors: 3, N: 4096, M: 4096, B: 256, Idx: 64, Clients: 2,
		Reads: 2, CkptRounds: 2, ReconnectRounds: 3}
)

func flipFirst(vals []float64) {
	if len(vals) > 0 {
		vals[0] += 1
	}
}

func TestSmokeOutputChecks(t *testing.T) {
	runs := map[string]func(o runOpts, corrupt bool) (*outcome, error){
		"example1-ooc": func(o runOpts, c bool) (*outcome, error) {
			return runExample1Sized(o, example1Tiny, pick(c, flipFirst))
		},
		"matrix-chain": func(o runOpts, c bool) (*outcome, error) {
			return runChainSized(o, chainTiny, pick(c, flipFirst))
		},
		"cluster-graph": func(o runOpts, c bool) (*outcome, error) {
			return runGraphSized(o, graphTiny, pick(c, flipFirst))
		},
		"serve-mixed": func(o runOpts, c bool) (*outcome, error) {
			var corrupt func(string) string
			if c {
				corrupt = func(s string) string { return strings.Replace(s, "[1] ", "[1] 9", 1) }
			}
			return runServeSized(o, serveTiny, t.TempDir(), corrupt)
		},
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: 0.2, trace: traced}
			res, err := run(o, false)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s (trace %v): %d of %d failed on a correct run", name, traced, res.failed, res.attempted)
			}
			for _, d := range endToEnd {
				if _, ok := res.e2e[d.name]; !ok && d.name != "setup_s" && d.name != "peak_rss_mb" {
					t.Errorf("%s: end-to-end metric %s missing", name, d.name)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.layer[d.name]; !ok {
					t.Errorf("%s: per-layer metric %s missing", name, d.name)
				}
			}
			if traced && res.layer["bench.trace_overhead"] <= 0 {
				t.Errorf("%s: no trace overhead measured", name)
			}
		}
		res, err := run(runOpts{seed: 7, seconds: 0.2}, true)
		if err != nil {
			t.Fatalf("%s corrupted: %v", name, err)
		}
		if res.failed == 0 || ratio(float64(res.failed), float64(res.attempted)) <= 0 {
			t.Errorf("%s: a corrupted result left error_ratio at 0 (%d attempted)", name, res.attempted)
		}
	}
}

func pick(on bool, f func([]float64)) func([]float64) {
	if on {
		return f
	}
	return nil
}

// TestBenchmarkJSONMatches keeps the metric and workload lists here in
// step with BENCHMARK.json at the repository root.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s metric %d: %s (%s) here, %s (%s) in BENCHMARK.json",
					kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end-to-end", endToEnd, spec.EndToEnd)
	same("per-layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, w.name, spec.Workloads[i].Name)
		}
	}
}

func TestChecksRejectNaN(t *testing.T) {
	ch := &chain{sz: chainSizes{N: 4}, r: []float64{1}, want: []float64{1, 1, 1, 1}, scale: []float64{1, 1, 1, 1}}
	if err := ch.check([]float64{1, 1, 1, math.NaN()}); !errors.Is(err, errWrong) {
		t.Errorf("chain check of a NaN result: %v", err)
	}
	e := &example1{sz: example1Sizes{Samples: 1}, s: []int64{1}}
	e.wantSum = e.d(0)
	if err := e.check([]float64{math.NaN()}, e.wantSum); !errors.Is(err, errWrong) {
		t.Errorf("example1 check of a NaN sample: %v", err)
	}
	if err := e.check([]float64{e.d(0)}, math.NaN()); !errors.Is(err, errWrong) {
		t.Errorf("example1 check of a NaN sum: %v", err)
	}
}
