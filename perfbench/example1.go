package main

import (
	"fmt"
	"math"

	"riot"
	"riot/internal/engine"
	"riot/internal/rlang"
)

// example1Sizes sizes the paper's Example 1: two vectors of N elements
// against a pool of M elements, so each vector is N/M times memory.
type example1Sizes struct {
	N, M    int64
	B       int
	Samples int64 // length of the gathered sample d[s]
}

var example1Full = example1Sizes{N: 1 << 21, M: 1 << 17, B: 1024, Samples: 100}

// example1Lazy builds d and the sample; nothing is evaluated until the
// benchmark fetches z and sums d.
const example1Lazy = `d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
z <- d[s]`

// Relative tolerances of the output check. Gathered elements are
// computed element-wise (no reassociation); the sum runs as a parallel
// reduction whose association order differs from the reference's.
const (
	example1GatherTol = 1e-12
	example1SumTol    = 1e-9
)

type example1 struct {
	seed    int64
	sz      example1Sizes
	sess    *riot.Session
	rt      *engine.RIOT
	in      *rlang.Interp
	s       []int64 // 1-based sample positions
	pts     [4]float64
	wantSum float64
	// corrupt perturbs fetched results before the check (tests only).
	corrupt func([]float64)
}

// x and y are uniform on [0, 1000) per seed.
func (e *example1) x(i int64) float64 { return 1000 * unit(e.seed, 1, uint64(i)) }
func (e *example1) y(i int64) float64 { return 1000 * unit(e.seed, 2, uint64(i)) }

// d is the closed form of Example 1's distance sum at position i.
func (e *example1) d(i int64) float64 {
	x, y := e.x(i), e.y(i)
	xs, ys, xe, ye := e.pts[0], e.pts[1], e.pts[2], e.pts[3]
	return math.Sqrt((x-xs)*(x-xs)+(y-ys)*(y-ys)) + math.Sqrt((x-xe)*(x-xe)+(y-ye)*(y-ye))
}

func newExample1(seed int64, sz example1Sizes) (*example1, error) {
	e := &example1{seed: seed, sz: sz}
	for k := range e.pts {
		e.pts[k] = 1000 * unit(seed, 3, uint64(k))
	}
	e.s = make([]int64, sz.Samples)
	for k := range e.s {
		e.s[k] = 1 + int64(unit(seed, 4, uint64(k))*float64(sz.N))
	}
	// The reference result: the closed-form sum, in index order.
	for i := int64(0); i < sz.N; i++ {
		e.wantSum += e.d(i)
	}

	e.sess = riot.NewSession(riot.Config{BlockElems: sz.B, MemElems: sz.M})
	e.rt = e.sess.Engine().(*engine.RIOT)
	x, err := e.rt.NewVector(sz.N, e.x)
	if err != nil {
		e.close()
		return nil, err
	}
	y, err := e.rt.NewVector(sz.N, e.y)
	if err != nil {
		e.close()
		return nil, err
	}
	s, err := e.rt.NewVector(sz.Samples, func(k int64) float64 { return float64(e.s[k]) })
	if err != nil {
		e.close()
		return nil, err
	}
	e.in = e.sess.Interp()
	e.in.SetVector("x", x)
	e.in.SetVector("y", y)
	e.in.SetVector("s", s)
	for k, name := range []string{"xs", "ys", "xe", "ye"} {
		e.in.SetScalar(name, e.pts[k])
	}
	// Warm-up: one checked iteration.
	if err := e.iterate(Tracer{}); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func (e *example1) value(name string) (engine.Value, error) {
	v, ok := e.in.Get(name)
	if !ok || v.IsScalar {
		return nil, fmt.Errorf("%s is not a vector", name)
	}
	return v.Obj, nil
}

func (e *example1) iterate(t Tracer) error {
	if err := t.Span("rlang.run", func(Tracer) error { return e.in.Run(example1Lazy) }); err != nil {
		return err
	}
	z, err := e.value("z")
	if err != nil {
		return err
	}
	d, err := e.value("d")
	if err != nil {
		return err
	}
	var got []float64
	if err := t.Span("exec.gather", func(Tracer) error {
		got, err = e.rt.Fetch(z, -1)
		return err
	}); err != nil {
		return err
	}
	var sum float64
	if err := t.Span("exec.sum", func(Tracer) error {
		sum, err = e.rt.Sum(d)
		return err
	}); err != nil {
		return err
	}
	if e.corrupt != nil {
		e.corrupt(got)
	}
	return e.check(got, sum)
}

func (e *example1) check(got []float64, sum float64) error {
	if int64(len(got)) != e.sz.Samples {
		return fmt.Errorf("%w: d[s] has %d elements, want %d", errWrong, len(got), e.sz.Samples)
	}
	for k, v := range got {
		if want := e.d(e.s[k] - 1); !relClose(v, want, example1GatherTol, 0) {
			return fmt.Errorf("%w: d[%d] = %v, want %v", errWrong, e.s[k], v, want)
		}
	}
	if !relClose(sum, e.wantSum, example1SumTol, 0) {
		return fmt.Errorf("%w: sum(d) = %v, want %v", errWrong, sum, e.wantSum)
	}
	return nil
}

// extras times the planner on the value the iteration forces.
func (e *example1) extras(t Tracer) error {
	d, err := e.value("d")
	if err != nil {
		return err
	}
	return t.Span("plan.plan", func(Tracer) error {
		_, err := e.rt.Plan(d)
		return err
	})
}

func (e *example1) between() error { return nil }

func (e *example1) counters() counters { return engineCounters(e.rt) }

func (e *example1) close() {
	if e.sess != nil {
		e.sess.Close()
	}
}

func runExample1(o runOpts) (*outcome, error) {
	return runExample1Sized(o, example1Full, nil)
}

// runExample1Sized runs the workload at the given sizes; corrupt, when
// set, perturbs every measured iteration's output before its check.
func runExample1Sized(o runOpts, sz example1Sizes, corrupt func([]float64)) (*outcome, error) {
	res := newOutcome()
	res.sizes = map[string]any{"B": sz.B, "M": sz.M, "n": sz.N, "samples": sz.Samples}
	ph, b, err := runBatch(o, res, func() (batch, error) {
		e, err := newExample1(o.seed, sz)
		if err != nil {
			return nil, err
		}
		e.corrupt = corrupt
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	defer b.close()
	ops := ph.ops()
	setStorageLayers(res.layer, ph.delta, ops)
	if o.trace {
		res.layer["rlang.lazy_stmt_ms"] = ph.layerMS("rlang")
		res.layer["plan.plan_ms"] = ph.layerMS("plan")
		force := ph.layerMS("exec")
		res.layer["exec.force_ms"] = force
		res.layer["exec.melem_per_s"] = ratio(ph.delta["exec.elements"]/ops/1e6, force/1e3)
	}
	return res, nil
}
