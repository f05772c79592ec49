package main

import (
	"fmt"
	"math"

	"riot"
	"riot/internal/engine"
)

// chainSizes sizes the skewed chain A(N×N/4)·B(N/4×N)·C(N×N/4): the
// planner's chain order decides whether the N×N intermediate exists.
type chainSizes struct {
	N, M int64
	B    int
	// RestartEvery reopens the session after that many iterations.
	// Fetching a lazy matrix stores its result on the device for the
	// session's lifetime (the engine frees storage only when the session
	// closes), so the device grows by the result's size per iteration;
	// the restart keeps memory independent of the run length. The
	// growth is reported as engine.live_mb_per_op.
	RestartEvery int
}

var chainFull = chainSizes{N: 512, M: 1 << 15, B: 1024, RestartEvery: 16}

// chainTol is the Freivalds check's tolerance, relative to the same
// product taken over absolute values (a bound on the rounding error).
const chainTol = 1e-9

type chain struct {
	sz      chainSizes
	gens    [3]func(i, j int64) float64 // A, B, C
	sess    *riot.Session
	rt      *engine.RIOT
	res     engine.Value // the lazy product A·B·C
	r       []float64    // Freivalds vector
	want    []float64    // A·(B·(C·r))
	scale   []float64    // |A|·(|B|·(|C|·|r|))
	corrupt func([]float64)

	// Counters taken around the Force and the fetch of each iteration.
	forceFlops, forceBlocks, fetchPins, fetchElems float64
	estBlocks                                      float64 // the plan's estimate for one Force

	iters     int      // iterations on the current session
	closed    counters // counters of sessions already restarted
	liveGrowB float64  // device storage added by iterations, in bytes
}

// matVec returns M·v for a rows×cols row-major matrix given by gen,
// over absolute values when abs is set.
func matVec(rows, cols int64, gen func(i, j int64) float64, v []float64, abs bool) []float64 {
	out := make([]float64, rows)
	for i := int64(0); i < rows; i++ {
		var s float64
		for j := int64(0); j < cols; j++ {
			x, y := gen(i, j), v[j]
			if abs {
				x, y = math.Abs(x), math.Abs(y)
			}
			s += x * y
		}
		out[i] = s
	}
	return out
}

func newChain(seed int64, sz chainSizes) (*chain, error) {
	n, q := sz.N, sz.N/4
	gen := func(tag uint64, cols int64) func(i, j int64) float64 {
		return func(i, j int64) float64 { return 2*unit(seed, tag, uint64(i*cols+j)) - 1 }
	}
	genA, genB, genC := gen(11, q), gen(12, n), gen(13, q)
	ch := &chain{sz: sz, gens: [3]func(i, j int64) float64{genA, genB, genC}, closed: counters{}}
	ch.r = make([]float64, q)
	for j := range ch.r {
		ch.r[j] = 2*unit(seed, 14, uint64(j)) - 1
	}
	ch.want = matVec(n, q, genA, matVec(q, n, genB, matVec(n, q, genC, ch.r, false), false), false)
	ch.scale = matVec(n, q, genA, matVec(q, n, genB, matVec(n, q, genC, ch.r, true), true), true)

	err := ch.start()
	if err == nil {
		err = ch.iterate(Tracer{}) // warm-up, checked
	}
	if err != nil {
		ch.close()
		return nil, err
	}
	return ch, nil
}

// start opens a session, loads A, B and C and builds the lazy product.
func (ch *chain) start() error {
	n, q := ch.sz.N, ch.sz.N/4
	ch.sess = riot.NewSession(riot.Config{BlockElems: ch.sz.B, MemElems: ch.sz.M})
	ch.rt, ch.iters = ch.sess.Engine().(*engine.RIOT), 0
	a, err := ch.rt.NewMatrix(n, q, ch.gens[0])
	var b, c, ab engine.Value
	if err == nil {
		b, err = ch.rt.NewMatrix(q, n, ch.gens[1])
	}
	if err == nil {
		c, err = ch.rt.NewMatrix(n, q, ch.gens[2])
	}
	if err == nil {
		ab, err = ch.rt.MatMul(a, b)
	}
	if err == nil {
		ch.res, err = ch.rt.MatMul(ab, c)
	}
	return err
}

// between reopens the session every RestartEvery iterations, keeping
// the counters of the old one.
func (ch *chain) between() error {
	if ch.iters < ch.sz.RestartEvery {
		return nil
	}
	ch.closed = ch.counters()
	ch.sess.Close()
	ch.sess = nil
	return ch.start()
}

func (ch *chain) iterate(t Tracer) error {
	ch.iters++
	live := storedBytes(ch.sess)
	defer func() { ch.liveGrowB += storedBytes(ch.sess) - live }()
	dev := ch.rt.Pool().Device()
	d0, x0 := dev.Stats(), ch.rt.Executor().Stats()
	if err := t.Span("linalg.force", func(Tracer) error { return ch.rt.ForceDiscard(ch.res) }); err != nil {
		return err
	}
	d1, x1 := dev.Stats(), ch.rt.Executor().Stats()
	ch.forceFlops += float64(x1.FlopsByOp["matmul"] - x0.FlopsByOp["matmul"])
	ch.forceBlocks += float64(d1.TotalBlocks() - d0.TotalBlocks())

	p0 := ch.rt.Pool().Stats()
	var got []float64
	err := t.Span("engine.fetch", func(Tracer) error {
		var err error
		got, err = ch.rt.Fetch(ch.res, -1)
		return err
	})
	if err != nil {
		return err
	}
	p1 := ch.rt.Pool().Stats()
	ch.fetchPins += float64(p1.Hits + p1.Misses - p0.Hits - p0.Misses)
	ch.fetchElems += float64(len(got))
	if ch.corrupt != nil {
		ch.corrupt(got)
	}
	return ch.check(got)
}

// check is Freivalds' test: result·r must equal A·(B·(C·r)).
func (ch *chain) check(got []float64) error {
	n, q := ch.sz.N, ch.sz.N/4
	if int64(len(got)) != n*q {
		return fmt.Errorf("%w: product has %d elements, want %d", errWrong, len(got), n*q)
	}
	for i := int64(0); i < n; i++ {
		var s float64
		row := got[i*q : (i+1)*q]
		for j, v := range row {
			s += v * ch.r[j]
		}
		if !(math.Abs(s-ch.want[i]) <= chainTol*ch.scale[i]) { // NaN fails too
			return fmt.Errorf("%w: (result·r)[%d] = %v, want %v", errWrong, i, s, ch.want[i])
		}
	}
	return nil
}

// extras times the planner on the chain and records its block estimate.
func (ch *chain) extras(t Tracer) error {
	return t.Span("plan.plan", func(Tracer) error {
		p, err := ch.rt.Plan(ch.res)
		if err == nil {
			ch.estBlocks = p.EstBlocks
		}
		return err
	})
}

// counters sums the current session's counters onto those of the
// sessions already restarted.
func (ch *chain) counters() counters {
	c := engineCounters(ch.rt)
	for k, v := range ch.closed {
		c[k] += v
	}
	c["engine.live_bytes"] = ch.liveGrowB
	return c
}

func (ch *chain) close() {
	if ch.sess != nil {
		ch.sess.Close()
	}
}

func runChain(o runOpts) (*outcome, error) { return runChainSized(o, chainFull, nil) }

// runChainSized runs the workload at the given sizes; corrupt, when set,
// perturbs every measured iteration's output before its check.
func runChainSized(o runOpts, sz chainSizes, corrupt func([]float64)) (*outcome, error) {
	res := newOutcome()
	res.sizes = map[string]any{"B": sz.B, "M": sz.M, "A": []int64{sz.N, sz.N / 4},
		"B_matrix": []int64{sz.N / 4, sz.N}, "C": []int64{sz.N, sz.N / 4}}
	var ch *chain
	ph, b, err := runBatch(o, res, func() (batch, error) {
		var err error
		if ch, err = newChain(o.seed, sz); err != nil {
			return nil, err
		}
		ch.corrupt = corrupt
		return ch, nil
	})
	if err != nil {
		return nil, err
	}
	defer b.close()
	// Iterations = the measured ones plus the warm-up in set-up.
	iters := ph.ops() + 1
	setStorageLayers(res.layer, ph.delta, ph.ops())
	if o.trace {
		res.layer["plan.plan_ms"] = ph.layerMS("plan")
		res.layer["plan.est_over_actual_blocks"] = ratio(ch.estBlocks, ch.forceBlocks/iters)
		mm := ph.layerMS("linalg")
		res.layer["linalg.matmul_ms"] = mm
		res.layer["linalg.gflops"] = ratio(ch.forceFlops/iters/1e9, mm/1e3)
		res.layer["engine.fetch_ms"] = ph.layerMS("engine")
		res.layer["engine.fetch_pins_per_elem"] = ratio(ch.fetchPins, ch.fetchElems)
		res.layer["engine.live_mb_per_op"] = ph.delta["engine.live_bytes"] / (1 << 20) / ph.ops()
	}
	return res, nil
}
