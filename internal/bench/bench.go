// Package bench regenerates every table and figure in the paper's
// evaluation: Figure 1 (Example 1 across the four systems), Figure 2
// (update pushdown), Figure 3 (matrix-chain I/O costs), plus the model-
// validation experiment E6 that cross-checks the analytic formulas
// against measured kernel I/O. See DESIGN.md's per-experiment index.
package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"riot/internal/algebra"
	"riot/internal/array"
	"riot/internal/buffer"
	"riot/internal/catalog"
	"riot/internal/costmodel"
	"riot/internal/disk"
	"riot/internal/engine"
	"riot/internal/exec"
	"riot/internal/linalg"
	"riot/internal/opt"
	"riot/internal/plan"
	"riot/internal/riotdb"
	"riot/internal/rlang"
	"riot/internal/scalarop"
)

// example1Script is the paper's Example 1, in riotscript.
const example1Script = `
xs <- 3; ys <- 4
xe <- 100; ye <- 200
d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
s <- sample(length(x), 100)
z <- d[s]
print(z)
`

// Figure1Row is one (engine, n) measurement.
type Figure1Row struct {
	Engine  string
	N       int64
	IOMB    float64
	Seconds float64
	WallNS  int64 // real wall-clock of the measured script run
}

// Figure1 runs Example 1 on every engine for each vector size, with the
// paper's memory recipe: memory holds the runtime plus two vectors of
// 2^22 elements (scaled down by the same ratio when maxN is smaller).
// It returns one row per (engine, n).
func Figure1(sizes []int64, blockElems int, w io.Writer) ([]Figure1Row, error) {
	var rows []Figure1Row
	maxN := sizes[len(sizes)-1]
	memElems := 2 * (maxN / 2) // two vectors of the middle size
	if len(sizes) >= 2 {
		memElems = 2 * sizes[len(sizes)-2]
	}
	runtimePages := 24
	tm := engine.DefaultTimeModel
	for _, n := range sizes {
		engines := []engine.Engine{
			engine.NewPlainR(blockElems, int(memElems/int64(blockElems))+runtimePages, runtimePages, tm),
			engine.NewRIOTDB(riotdb.Strawman, blockElems, memElems, tm),
			engine.NewRIOTDB(riotdb.MatNamed, blockElems, memElems, tm),
			engine.NewRIOTDB(riotdb.Full, blockElems, memElems, tm),
			engine.NewRIOT(blockElems, memElems, tm),
		}
		for _, e := range engines {
			rep, wall, err := runExample1(e, n)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", e.Name(), n, err)
			}
			rows = append(rows, Figure1Row{Engine: e.Name(), N: n, IOMB: rep.IOMB(), Seconds: rep.SimSeconds, WallNS: wall})
			if err := e.Close(); err != nil {
				return nil, fmt.Errorf("%s n=%d: close: %w", e.Name(), n, err)
			}
		}
	}
	if w != nil {
		fmt.Fprintln(w, "Figure 1(a): Disk I/O (MB) — Example 1")
		printFig1(w, rows, func(r Figure1Row) float64 { return r.IOMB })
		fmt.Fprintln(w, "\nFigure 1(b): Computation time (simulated sec) — Example 1")
		printFig1(w, rows, func(r Figure1Row) float64 { return r.Seconds })
	}
	return rows, nil
}

func printFig1(w io.Writer, rows []Figure1Row, metric func(Figure1Row) float64) {
	var sizes []int64
	seen := map[int64]bool{}
	for _, r := range rows {
		if !seen[r.N] {
			seen[r.N] = true
			sizes = append(sizes, r.N)
		}
	}
	fmt.Fprintf(w, "%-18s", "engine \\ n")
	for _, n := range sizes {
		fmt.Fprintf(w, "%14d", n)
	}
	fmt.Fprintln(w)
	var names []string
	seenE := map[string]bool{}
	for _, r := range rows {
		if !seenE[r.Engine] {
			seenE[r.Engine] = true
			names = append(names, r.Engine)
		}
	}
	for _, name := range names {
		fmt.Fprintf(w, "%-18s", name)
		for _, n := range sizes {
			for _, r := range rows {
				if r.Engine == name && r.N == n {
					fmt.Fprintf(w, "%14.1f", metric(r))
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// runExample1 executes the script on e with fresh inputs of size n,
// measuring only the computation (inputs pre-loaded, as in the paper).
// It returns the engine's report plus the real wall-clock nanoseconds of
// the script run.
func runExample1(e engine.Engine, n int64) (engine.Report, int64, error) {
	in := rlang.New(e)
	x, err := e.NewVector(n, func(i int64) float64 { return float64(i % 9973) })
	if err != nil {
		return engine.Report{}, 0, err
	}
	y, err := e.NewVector(n, func(i int64) float64 { return float64(i % 9967) })
	if err != nil {
		return engine.Report{}, 0, err
	}
	in.SetVector("x", x)
	in.SetVector("y", y)
	e.ResetStats()
	start := time.Now()
	if err := in.Run(example1Script); err != nil {
		return engine.Report{}, 0, err
	}
	return e.Report(), time.Since(start).Nanoseconds(), nil
}

// Figure2Row is one configuration of the update-pushdown experiment.
type Figure2Row struct {
	Config   string
	Elements int64 // elements computed to produce b[1:10]
	IOBlocks int64
	WallNS   int64 // real wall-clock of the measured fetch
}

// Figure2 compares deferred functional updates plus subscript pushdown
// (RIOT) against eager update semantics (R / RIOT-DB) on the §5 example
// b <- a^2; b[b>100] <- 100; print(b[1:10]).
func Figure2(n int64, blockElems int, w io.Writer) ([]Figure2Row, error) {
	run := func(deferred bool) (Figure2Row, error) {
		dev := disk.NewDevice(blockElems)
		pool := buffer.New(dev, 64)
		ex := exec.New(pool)
		ex.EagerUpdates = !deferred
		g := algebra.NewGraph()
		a, err := array.NewVector(pool, "a", n)
		if err != nil {
			return Figure2Row{}, err
		}
		if err := a.Fill(func(i int64) float64 { return float64(i) }); err != nil {
			return Figure2Row{}, err
		}
		an := g.SourceVec(a)
		b, err := g.ScalarOp("^", an, 2, false)
		if err != nil {
			return Figure2Row{}, err
		}
		b2, err := g.UpdateMask(b, ">", 100, 100)
		if err != nil {
			return Figure2Row{}, err
		}
		head, err := g.Range(b2, 0, 10)
		if err != nil {
			return Figure2Row{}, err
		}
		cfg := opt.DefaultConfig()
		cfg.PushdownRange = deferred
		cfg.PushdownGather = deferred
		root, err := opt.New(g, cfg).Optimize(head)
		if err != nil {
			return Figure2Row{}, err
		}
		if err := pool.DropAll(); err != nil {
			return Figure2Row{}, err
		}
		dev.ResetStats()
		start := time.Now()
		if _, err := ex.Fetch(root, -1); err != nil {
			return Figure2Row{}, err
		}
		wall := time.Since(start).Nanoseconds()
		name := "eager update (R / RIOT-DB)"
		if deferred {
			name = "deferred update + pushdown (RIOT)"
		}
		return Figure2Row{Config: name, Elements: ex.Stats().ElementsComputed, IOBlocks: dev.Stats().TotalBlocks(), WallNS: wall}, nil
	}
	eager, err := run(false)
	if err != nil {
		return nil, err
	}
	deferred, err := run(true)
	if err != nil {
		return nil, err
	}
	rows := []Figure2Row{eager, deferred}
	if w != nil {
		fmt.Fprintf(w, "Figure 2: b <- a^2; b[b>100] <- 100; print(b[1:10])   (n = %d)\n", n)
		fmt.Fprintf(w, "%-36s %16s %12s\n", "configuration", "elements computed", "I/O blocks")
		for _, r := range rows {
			fmt.Fprintf(w, "%-36s %16d %12d\n", r.Config, r.Elements, r.IOBlocks)
		}
	}
	return rows, nil
}

// Fig3BlockElems is the block size (in float64 elements) the Figure 3
// cost calculations assume; exported so result converters agree with it.
const Fig3BlockElems = 1024

// Figure3Row is one (strategy, configuration) calculated cost.
type Figure3Row struct {
	Strategy string
	N        float64
	MemGB    float64
	Skew     float64
	IOBlocks float64
}

// Figure3a computes the calculated I/O costs of the three-matrix chain
// for n ∈ sizes and memories mems (GB), at skew s=2, exactly as the
// paper's Figure 3(a).
func Figure3a(sizes []float64, memsGB []float64, w io.Writer) []Figure3Row {
	var rows []Figure3Row
	for _, n := range sizes {
		for _, gb := range memsGB {
			p := costmodel.Params{MemElems: costmodel.GB(gb), BlockElems: Fig3BlockElems}
			dims := costmodel.SkewedChainDims(n, 2)
			rows = append(rows,
				Figure3Row{"RIOT-DB", n, gb, 2, costmodel.InOrder(dims).IO(costmodel.StrategyRIOTDB, p)},
				Figure3Row{"BNLJ-Inspired", n, gb, 2, costmodel.InOrder(dims).IO(costmodel.StrategyBNLJ, p)},
				Figure3Row{"Square/In-Order", n, gb, 2, costmodel.InOrder(dims).IO(costmodel.StrategySquare, p)},
				Figure3Row{"Square/Opt-Order", n, gb, 2, costmodel.OptOrder(dims).IO(costmodel.StrategySquare, p)},
			)
		}
	}
	if w != nil {
		fmt.Fprintln(w, "Figure 3(a): chain A(n x n/2) B(n/2 x n) C(n x n), I/O in blocks (B=1024)")
		fmt.Fprintf(w, "%-18s", "strategy")
		for _, n := range sizes {
			for _, gb := range memsGB {
				fmt.Fprintf(w, "  n=%g/%gGB", n, gb)
			}
		}
		fmt.Fprintln(w)
		for _, s := range []string{"RIOT-DB", "BNLJ-Inspired", "Square/In-Order", "Square/Opt-Order"} {
			fmt.Fprintf(w, "%-18s", s)
			for _, n := range sizes {
				for _, gb := range memsGB {
					for _, r := range rows {
						if r.Strategy == s && r.N == n && r.MemGB == gb {
							fmt.Fprintf(w, "  %12.3e", r.IOBlocks)
						}
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
	return rows
}

// Figure3b varies the skewness factor at n=100000 and 2 GB memory,
// dropping RIOT-DB as the paper does ("it performs far worse").
func Figure3b(skews []float64, w io.Writer) []Figure3Row {
	p := costmodel.Params{MemElems: costmodel.GB(2), BlockElems: Fig3BlockElems}
	var rows []Figure3Row
	for _, s := range skews {
		dims := costmodel.SkewedChainDims(100000, s)
		rows = append(rows,
			Figure3Row{"BNLJ-Inspired", 100000, 2, s, costmodel.InOrder(dims).IO(costmodel.StrategyBNLJ, p)},
			Figure3Row{"Square/In-Order", 100000, 2, s, costmodel.InOrder(dims).IO(costmodel.StrategySquare, p)},
			Figure3Row{"Square/Opt-Order", 100000, 2, s, costmodel.OptOrder(dims).IO(costmodel.StrategySquare, p)},
		)
	}
	if w != nil {
		fmt.Fprintln(w, "Figure 3(b): skewness sweep, n=100000, M=2GB, I/O in blocks")
		fmt.Fprintf(w, "%-18s", "strategy")
		for _, s := range skews {
			fmt.Fprintf(w, "       s=%g", s)
		}
		fmt.Fprintln(w)
		for _, name := range []string{"BNLJ-Inspired", "Square/In-Order", "Square/Opt-Order"} {
			fmt.Fprintf(w, "%-18s", name)
			for _, s := range skews {
				for _, r := range rows {
					if r.Strategy == name && r.Skew == s {
						fmt.Fprintf(w, " %9.3e", r.IOBlocks)
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
	return rows
}

// ValidateRow compares measured kernel I/O against the analytic model.
type ValidateRow struct {
	N         int64
	Kernel    string
	Measured  float64
	Predicted float64
	WallNS    int64 // real wall-clock of the measured multiply
}

// ValidateBlockElems is the device block size ValidateModel uses;
// exported so result converters agree with it.
const ValidateBlockElems = 64

// ValidateModel executes the square-tiled and BNLJ kernels on real tiled
// matrices at laptop scale and reports measured vs predicted blocks
// (experiment E6).
func ValidateModel(sizes []int64, w io.Writer) ([]ValidateRow, error) {
	const blockElems = ValidateBlockElems
	const frames = 48
	var rows []ValidateRow
	for _, n := range sizes {
		for _, kernel := range []string{"square-tiled", "bnlj"} {
			dev := disk.NewDevice(blockElems)
			pool := buffer.New(dev, frames)
			var a, b *array.Matrix
			var err error
			if kernel == "square-tiled" {
				a, err = array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
			} else {
				a, err = array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.RowTiles})
			}
			if err != nil {
				return nil, err
			}
			if kernel == "square-tiled" {
				b, err = array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
			} else {
				b, err = array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.ColTiles})
			}
			if err != nil {
				return nil, err
			}
			if err := a.Fill(func(i, j int64) float64 { return float64((i + j) % 7) }); err != nil {
				return nil, err
			}
			if err := b.Fill(func(i, j int64) float64 { return float64((i * j) % 5) }); err != nil {
				return nil, err
			}
			if err := pool.DropAll(); err != nil {
				return nil, err
			}
			dev.ResetStats()
			start := time.Now()
			if kernel == "square-tiled" {
				_, err = linalg.MatMulTiled(pool, "c", a, b, 1, scalarop.Standard)
			} else {
				_, err = linalg.MatMulBNLJ(pool, "c", a, b, array.Options{Shape: array.RowTiles})
			}
			if err != nil {
				return nil, err
			}
			wall := time.Since(start).Nanoseconds()
			p := costmodel.Params{MemElems: float64(pool.MemoryElems()), BlockElems: blockElems}
			var predicted float64
			if kernel == "square-tiled" {
				predicted = costmodel.SquareTiled(float64(n), float64(n), float64(n), p)
			} else {
				predicted = costmodel.BNLJ(float64(n), float64(n), float64(n), p)
			}
			rows = append(rows, ValidateRow{
				N: n, Kernel: kernel,
				Measured:  float64(dev.Stats().TotalBlocks()),
				Predicted: predicted,
				WallNS:    wall,
			})
		}
	}
	if w != nil {
		fmt.Fprintln(w, "E6: measured kernel I/O vs analytic model (blocks; B=64, M=3072)")
		fmt.Fprintf(w, "%8s %-14s %10s %10s %7s\n", "n", "kernel", "measured", "model", "ratio")
		for _, r := range rows {
			fmt.Fprintf(w, "%8d %-14s %10.0f %10.0f %7.2f\n", r.N, r.Kernel, r.Measured, r.Predicted, r.Measured/r.Predicted)
		}
	}
	return rows, nil
}

// ReadaheadRow is one configuration of the I/O-scheduler ablation.
type ReadaheadRow struct {
	Workload  string // "scan" or "matmul"
	Readahead bool
	Workers   int
	SeqReads  int64
	RandReads int64
	IOMB      float64
	SimSec    float64 // disk.DefaultCostModel over the measured stats
	WallNS    int64   // real wall-clock of the measured operation
	// Prefetch effectiveness (zero with readahead off).
	Prefetched   int64
	PrefetchHits int64
	Wasted       int64
}

// ReadaheadAblation measures the I/O scheduler on the two workloads the
// paper's I/O argument is about: Example 1's fused streaming pipeline
// over two stored vectors, and the square-tiled out-of-core multiply.
// Both run with the scheduler off (the seed's exact I/O) and on, at one
// worker (the deterministic paper configuration) and at maxWorkers.
//
// Both workloads issue structurally random I/O even single-threaded —
// the fused pipeline alternates between x's and y's block runs every
// chunk, and the multiply interleaves tile reads with write-backs of
// evicted result tiles — which is exactly what the scheduler repairs:
// readahead turns each stream into bulky vectored reads, and elevator
// write-back groups the flushes. RandReads and the cost-model seconds
// must drop with the scheduler on.
func ReadaheadAblation(maxWorkers int, w io.Writer) ([]ReadaheadRow, error) {
	var rows []ReadaheadRow

	// Workload 1: Example 1's pattern, (x-3)² + (y-4)² summed, vectors
	// 8× the pool.
	scan := func(workers int, readahead bool) (ReadaheadRow, error) {
		const blockElems = 1024
		const frames = 64
		const n = int64(frames*4) * blockElems
		dev := disk.NewDevice(blockElems)
		pool := buffer.NewSharded(dev, frames, workers)
		if readahead {
			pool.SetReadahead(buffer.ReadaheadConfig{Enabled: true})
		}
		ex := exec.New(pool)
		ex.Workers = workers
		g := algebra.NewGraph()
		x, err := array.NewVector(pool, "x", n)
		if err != nil {
			return ReadaheadRow{}, err
		}
		y, err := array.NewVector(pool, "y", n)
		if err != nil {
			return ReadaheadRow{}, err
		}
		if err := x.Fill(func(i int64) float64 { return float64(i % 97) }); err != nil {
			return ReadaheadRow{}, err
		}
		if err := y.Fill(func(i int64) float64 { return float64(i % 89) }); err != nil {
			return ReadaheadRow{}, err
		}
		if err := pool.DropAll(); err != nil {
			return ReadaheadRow{}, err
		}
		dev.ResetStats()
		pool.ResetStats()
		xn, yn := g.SourceVec(x), g.SourceVec(y)
		xs, err := g.ScalarOp("-", xn, 3, false)
		if err != nil {
			return ReadaheadRow{}, err
		}
		ys, err := g.ScalarOp("-", yn, 4, false)
		if err != nil {
			return ReadaheadRow{}, err
		}
		xq, err := g.ElemBinary("*", xs, xs)
		if err != nil {
			return ReadaheadRow{}, err
		}
		yq, err := g.ElemBinary("*", ys, ys)
		if err != nil {
			return ReadaheadRow{}, err
		}
		d, err := g.ElemBinary("+", xq, yq)
		if err != nil {
			return ReadaheadRow{}, err
		}
		start := time.Now()
		if _, err := ex.Reduce("sum", d); err != nil {
			return ReadaheadRow{}, err
		}
		pool.DrainPrefetch()
		wall := time.Since(start).Nanoseconds()
		st := dev.Stats()
		ps := pool.Stats()
		return ReadaheadRow{
			Workload: "scan", Readahead: readahead, Workers: workers,
			SeqReads: st.SeqReads, RandReads: st.RandReads,
			IOMB:       st.TotalMB(),
			SimSec:     disk.DefaultCostModel.Seconds(st),
			WallNS:     wall,
			Prefetched: ps.Prefetched, PrefetchHits: ps.PrefetchHits, Wasted: ps.WastedPrefetch,
		}, nil
	}

	// Workload 2: square-tiled multiply over matrices that exceed the
	// pool budget (the WorkersAblation configuration).
	matmul := func(workers int, readahead bool) (ReadaheadRow, error) {
		const blockElems = 4096
		const frames = 48
		const n = int64(512)
		dev := disk.NewDevice(blockElems)
		pool := buffer.NewSharded(dev, frames, workers)
		if readahead {
			pool.SetReadahead(buffer.ReadaheadConfig{Enabled: true})
		}
		a, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			return ReadaheadRow{}, err
		}
		b, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			return ReadaheadRow{}, err
		}
		if err := a.Fill(func(i, j int64) float64 { return float64((i + j) % 13) }); err != nil {
			return ReadaheadRow{}, err
		}
		if err := b.Fill(func(i, j int64) float64 { return float64((i * j) % 11) }); err != nil {
			return ReadaheadRow{}, err
		}
		if err := pool.DropAll(); err != nil {
			return ReadaheadRow{}, err
		}
		dev.ResetStats()
		pool.ResetStats()
		start := time.Now()
		c, err := linalg.MatMulTiled(pool, "c", a, b, workers, scalarop.Standard)
		if err != nil {
			return ReadaheadRow{}, err
		}
		pool.DrainPrefetch()
		wall := time.Since(start).Nanoseconds()
		st := dev.Stats()
		ps := pool.Stats()
		row := ReadaheadRow{
			Workload: "matmul", Readahead: readahead, Workers: workers,
			SeqReads: st.SeqReads, RandReads: st.RandReads,
			IOMB:       st.TotalMB(),
			SimSec:     disk.DefaultCostModel.Seconds(st),
			WallNS:     wall,
			Prefetched: ps.Prefetched, PrefetchHits: ps.PrefetchHits, Wasted: ps.WastedPrefetch,
		}
		// Spot-check the product so the ablation cannot silently trade
		// correctness for I/O.
		v, err := c.At(n/2, n/3)
		if err != nil {
			return ReadaheadRow{}, err
		}
		var want float64
		for k := int64(0); k < n; k++ {
			want += float64(((n/2)+k)%13) * float64((k*(n/3))%11)
		}
		if v != want {
			return ReadaheadRow{}, fmt.Errorf("bench: readahead matmul diverged: %v != %v", v, want)
		}
		return row, nil
	}

	workerList := []int{1}
	if maxWorkers > 1 {
		workerList = append(workerList, maxWorkers)
	}
	for _, f := range []func(int, bool) (ReadaheadRow, error){scan, matmul} {
		for _, workers := range workerList {
			for _, ra := range []bool{false, true} {
				row, err := f(workers, ra)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	if w != nil {
		fmt.Fprintf(w, "Readahead ablation: I/O scheduler off vs on\n")
		fmt.Fprintf(w, "%-8s %7s %-10s %10s %10s %8s %8s %11s %7s %7s\n",
			"workload", "workers", "readahead", "seq-reads", "rand-reads", "IO-MB", "sim-sec", "prefetched", "hits", "wasted")
		for _, r := range rows {
			on := "off"
			if r.Readahead {
				on = "on"
			}
			fmt.Fprintf(w, "%-8s %7d %-10s %10d %10d %8.1f %8.2f %11d %7d %7d\n",
				r.Workload, r.Workers, on, r.SeqReads, r.RandReads, r.IOMB, r.SimSec,
				r.Prefetched, r.PrefetchHits, r.Wasted)
		}
	}
	return rows, nil
}

// PlannerRow is one configuration of the physical-planner ablation.
type PlannerRow struct {
	Workload     string // "scan", "gather", or "chain"
	Strategy     string // plan.Strategy name
	EstBlocks    float64
	ActualBlocks int64
	IOMB         float64
	SimSec       float64
	WallNS       int64 // real wall-clock of the forced plan
}

// PlannerAblation compares the heuristic and cost-based planner
// strategies on the three workload shapes the planner's decisions
// matter for: Example 1's fused scan-and-reduce over two out-of-core
// vectors, a shared-gather pipeline whose data vector fits in memory
// (where the cost-based planner skips a useless materialization), and
// a reordered matrix chain (algorithm selection per multiply). Each row
// records the plan's estimated device blocks next to the measured
// count, so the estimate-vs-actual trajectory is tracked in
// BENCH_results.json.
func PlannerAblation(w io.Writer) ([]PlannerRow, error) {
	var rows []PlannerRow

	run := func(workload string, strat plan.Strategy, f func(r *engine.RIOT) (engine.Value, func() error, error), blockElems int, memElems int64) error {
		r := engine.NewRIOTConfigured(blockElems, memElems, engine.DefaultTimeModel,
			engine.RIOTOptions{Workers: 1, Planner: strat})
		defer r.Close()
		v, force, err := f(r)
		if err != nil {
			return err
		}
		pl, err := r.Plan(v)
		if err != nil {
			return err
		}
		if err := r.Executor().Pool().DropAll(); err != nil {
			return err
		}
		dev := r.Executor().Pool().Device()
		dev.ResetStats()
		start := time.Now()
		if err := force(); err != nil {
			return err
		}
		wall := time.Since(start).Nanoseconds()
		st := dev.Stats()
		rows = append(rows, PlannerRow{
			Workload: workload, Strategy: strat.String(),
			EstBlocks:    pl.EstBlocks,
			ActualBlocks: st.TotalBlocks(),
			IOMB:         st.TotalMB(),
			SimSec:       disk.DefaultCostModel.Seconds(st),
			WallNS:       wall,
		})
		return nil
	}

	// Workload 1: Example 1's shape — sum((x-3)²+(y-4)²) with both
	// vectors 4× the pool. No shared subtree is worth storing; both
	// strategies must pipeline everything.
	scan := func(r *engine.RIOT) (engine.Value, func() error, error) {
		const n = int64(64*4) * 1024
		x, err := r.NewVector(n, func(i int64) float64 { return float64(i % 97) })
		if err != nil {
			return nil, nil, err
		}
		y, err := r.NewVector(n, func(i int64) float64 { return float64(i % 89) })
		if err != nil {
			return nil, nil, err
		}
		xs, err := r.ArithScalar("-", x, 3, false)
		if err != nil {
			return nil, nil, err
		}
		ys, err := r.ArithScalar("-", y, 4, false)
		if err != nil {
			return nil, nil, err
		}
		xq, err := r.Arith("*", xs, xs)
		if err != nil {
			return nil, nil, err
		}
		yq, err := r.Arith("*", ys, ys)
		if err != nil {
			return nil, nil, err
		}
		d, err := r.Arith("+", xq, yq)
		if err != nil {
			return nil, nil, err
		}
		return d, func() error { _, err := r.Sum(d); return err }, nil
	}

	// Workload 2: a shared gather over a memory-resident data vector —
	// (x[s]-3)² + (x[s]-100)². The heuristic always materializes the
	// shared gather; the cost-based planner recomputes it from the
	// buffer pool and saves the temporary's write-back.
	gather := func(r *engine.RIOT) (engine.Value, func() error, error) {
		const n = int64(16384)
		const k = int64(2048)
		x, err := r.NewVector(n, func(i int64) float64 { return float64(i % 211) })
		if err != nil {
			return nil, nil, err
		}
		s, err := r.Sample(n, k, 7)
		if err != nil {
			return nil, nil, err
		}
		g, err := r.IndexBy(x, s)
		if err != nil {
			return nil, nil, err
		}
		a, err := r.ArithScalar("-", g, 3, false)
		if err != nil {
			return nil, nil, err
		}
		aq, err := r.Arith("*", a, a)
		if err != nil {
			return nil, nil, err
		}
		b, err := r.ArithScalar("-", g, 100, false)
		if err != nil {
			return nil, nil, err
		}
		bq, err := r.Arith("*", b, b)
		if err != nil {
			return nil, nil, err
		}
		z, err := r.Arith("+", aq, bq)
		if err != nil {
			return nil, nil, err
		}
		return z, func() error { _, err := r.Fetch(z, -1); return err }, nil
	}

	// Workload 3: the Figure 3 skewed chain A(n×n/2) B(n/2×n) C(n×n) at
	// validation scale; the planner picks the order (via opt's DP) and
	// the kernel per multiply, and its per-step formula estimates are
	// compared against the measured tile traffic.
	chain := func(r *engine.RIOT) (engine.Value, func() error, error) {
		const n = int64(160)
		a, err := r.NewMatrix(n, n/2, func(i, j int64) float64 { return float64((i + j) % 7) })
		if err != nil {
			return nil, nil, err
		}
		b, err := r.NewMatrix(n/2, n, func(i, j int64) float64 { return float64((i * j) % 5) })
		if err != nil {
			return nil, nil, err
		}
		c, err := r.NewMatrix(n, n, func(i, j int64) float64 { return float64((i - j) % 3) })
		if err != nil {
			return nil, nil, err
		}
		ab, err := r.MatMul(a, b)
		if err != nil {
			return nil, nil, err
		}
		abc, err := r.MatMul(ab, c)
		if err != nil {
			return nil, nil, err
		}
		return abc, func() error { _, err := r.ForceMatrix(abc); return err }, nil
	}

	type workload struct {
		name       string
		f          func(r *engine.RIOT) (engine.Value, func() error, error)
		blockElems int
		memElems   int64
	}
	for _, wl := range []workload{
		{"scan", scan, 1024, 64 * 1024},
		{"gather", gather, 1024, 64 * 1024},
		{"chain", chain, 64, 48 * 64},
	} {
		for _, strat := range []plan.Strategy{plan.Heuristic, plan.CostBased} {
			if err := run(wl.name, strat, wl.f, wl.blockElems, wl.memElems); err != nil {
				return nil, fmt.Errorf("bench: planner %s/%s: %w", wl.name, strat, err)
			}
		}
	}
	if w != nil {
		fmt.Fprintln(w, "Planner ablation: heuristic vs cost-based physical plans")
		fmt.Fprintf(w, "%-8s %-11s %12s %12s %8s %8s\n",
			"workload", "strategy", "est-blocks", "actual-blks", "IO-MB", "sim-sec")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s %-11s %12.0f %12d %8.2f %8.3f\n",
				r.Workload, r.Strategy, r.EstBlocks, r.ActualBlocks, r.IOMB, r.SimSec)
		}
	}
	return rows, nil
}

// WorkersRow is one configuration of the parallel-execution ablation.
type WorkersRow struct {
	Workers int     // worker goroutines (and pool shards)
	WallNS  int64   // measured wall-clock for the multiply
	IOMB    float64 // device traffic
	Speedup float64 // wall-clock of Workers=1 over this row
}

// WorkersAblation multiplies two n×n square-tiled matrices that exceed
// the pool budget with each worker count, measuring real wall-clock
// time. It is the experiment behind riot.Config.Workers: Workers=1 is
// the paper's deterministic sequential schedule, larger counts shrink
// the per-worker super-block (q = √(M/3W)) and run them concurrently.
// Wall-clock speedup requires real cores; the I/O column shows the
// schedule staying within the same budget either way.
func WorkersAblation(n int64, workersList []int, w io.Writer) ([]WorkersRow, error) {
	const blockElems = 4096 // 64x64 tiles
	const frames = 48       // well below the tile count of one matrix
	var rows []WorkersRow
	var check float64
	for _, workers := range workersList {
		dev := disk.NewDevice(blockElems)
		pool := buffer.NewSharded(dev, frames, workers)
		a, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			return nil, err
		}
		b, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
		if err != nil {
			return nil, err
		}
		if err := a.Fill(func(i, j int64) float64 { return float64((i + j) % 13) }); err != nil {
			return nil, err
		}
		if err := b.Fill(func(i, j int64) float64 { return float64((i * j) % 11) }); err != nil {
			return nil, err
		}
		if err := pool.DropAll(); err != nil {
			return nil, err
		}
		dev.ResetStats()
		start := time.Now()
		c, err := linalg.MatMulTiled(pool, "c", a, b, workers, scalarop.Standard)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		ioBytes := dev.Stats().TotalBytes() // snapshot before the spot-check's read
		// Cross-check every configuration against the first one through a
		// spot value (the full comparison lives in the linalg tests).
		v, err := c.At(n/2, n/3)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			check = v
		} else if v != check {
			return nil, fmt.Errorf("bench: workers=%d result diverged: %v != %v", workers, v, check)
		}
		rows = append(rows, WorkersRow{
			Workers: workers,
			WallNS:  wall.Nanoseconds(),
			IOMB:    float64(ioBytes) / (1 << 20),
		})
	}
	for i := range rows {
		rows[i].Speedup = float64(rows[0].WallNS) / float64(rows[i].WallNS)
	}
	if w != nil {
		fmt.Fprintf(w, "Workers ablation: %dx%d square-tiled multiply, budget %d frames of %d elems\n", n, n, frames, blockElems)
		fmt.Fprintf(w, "%8s %14s %10s %9s\n", "workers", "wall", "IO-MB", "speedup")
		for _, r := range rows {
			fmt.Fprintf(w, "%8d %14s %10.1f %8.2fx\n", r.Workers, time.Duration(r.WallNS), r.IOMB, r.Speedup)
		}
	}
	return rows, nil
}

// SparseRow is one sparse-ablation measurement: an n×n adjacency matmul
// at a given density, dense tiles vs the tile-compressed sparse kind.
type SparseRow struct {
	Density    float64 // stored nnz / n² of the adjacency matrix
	Mode       string  // "dense" or "sparse"
	NNZ        int64   // adjacency nonzeros
	BlockReads int64
	IOMB       float64
	SimSec     float64 // disk.DefaultCostModel over the measured stats
	EstBlocks  float64 // the planner's estimate for the multiply step
	WallNS     int64   // real wall-clock of the forced multiply
}

// SparseAblation is the headline sparse benchmark: two-hop path counts
// (A %*% A) over a pathlengths-style banded adjacency matrix at three
// densities. Block reads on the sparse path scale with the number of
// non-empty tiles, so they drop roughly in proportion to density, while
// the dense kernel pays the full Θ(n³/(B√M)) schedule regardless of the
// zeros it multiplies. At full density the sparse kind's compressed
// payloads buy nothing and its tile-at-a-time schedule re-reads more —
// the crossover the planner's density estimates exist to see.
func SparseAblation(w io.Writer) ([]SparseRow, error) {
	const n = 512
	const blockElems = 1024
	const memElems = 1 << 16
	fmt.Fprintf(w, "sparse ablation: %d×%d adjacency two-hop matmul (B=%d, M=%d)\n", n, n, blockElems, memElems)
	fmt.Fprintf(w, "%-10s %-8s %12s %12s %10s %10s\n", "density", "mode", "nnz", "blk reads", "io MB", "sim s")

	// Bands chosen so stored densities land near 1%, 10%, and 100%.
	bands := []int64{2, 26, n}
	var rows []SparseRow
	for _, band := range bands {
		gen := func(i, j int64) float64 {
			d := i - j
			if d < 0 {
				d = -d
			}
			if band >= n || (d != 0 && d <= band) {
				return 1
			}
			return 0
		}
		for _, mode := range []string{"dense", "sparse"} {
			r := engine.NewRIOT(blockElems, memElems, engine.DefaultTimeModel)
			a, err := r.NewMatrix(n, n, gen)
			if err != nil {
				return nil, err
			}
			nnz, err := r.NNZ(a)
			if err != nil {
				return nil, err
			}
			if mode == "sparse" {
				if a, err = r.ToSparse(a); err != nil {
					return nil, err
				}
			}
			p, err := r.MatMul(a, a)
			if err != nil {
				return nil, err
			}
			pl, err := r.Plan(p)
			if err != nil {
				return nil, err
			}
			var est float64
			for _, s := range pl.Steps {
				if s.Kind == plan.StepMatMul {
					est = s.EstReadBlocks + s.EstWriteBlocks
				}
			}
			r.ResetStats()
			// Force the multiply in its natural kind; no result scan, so
			// the measured I/O is the kernel's alone.
			start := time.Now()
			if _, _, err := r.ForceAnyMatrix(p); err != nil {
				return nil, err
			}
			wall := time.Since(start).Nanoseconds()
			st := r.Pool().Device().Stats()
			row := SparseRow{
				Density:    float64(nnz) / float64(n*n),
				Mode:       mode,
				NNZ:        nnz,
				BlockReads: st.BlocksRead,
				IOMB:       st.TotalMB(),
				SimSec:     disk.DefaultCostModel.Seconds(st),
				EstBlocks:  est,
				WallNS:     wall,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-10.4f %-8s %12d %12d %10.1f %10.2f\n",
				row.Density, row.Mode, row.NNZ, row.BlockReads, row.IOMB, row.SimSec)
			if err := r.Close(); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// WALRow is one write-ahead-log ablation measurement: concurrent
// sessions publishing named vectors under one durability mode.
type WALRow struct {
	Mode        string // "off", "interval", "always"
	Sessions    int
	Publishes   int
	WallNS      int64
	PubPerSec   float64
	Fsyncs      int64 // log fsyncs over the whole run (0 when off)
	GroupedAcks int64 // acks satisfied by a shared flush (0 when off)
}

// WALAblation measures what durability costs: N concurrent publishers
// against one catalog with the WAL off (checkpoint-only, the seed
// behavior), on a flush interval, and on fsync-per-commit. The always
// row is the honest price of crash safety; when the host filesystem's
// fsync is slower than a publish (any real disk), its fsync count drops
// below its publish count — the group commit batching concurrent
// sessions' appends into shared flushes. Host-filesystem wall-clock,
// not simulated time: the WAL writes real files, and the simulated
// device counters are identical in every mode by design.
func WALAblation(w io.Writer) ([]WALRow, error) {
	const blockElems = 256
	const frames = 512
	const vecLen = 2048 // 8 blocks of payload per publish
	const sessions = 4
	const perSession = 40
	fmt.Fprintf(w, "wal ablation: %d sessions × %d publishes of %d-element vectors\n",
		sessions, perSession, vecLen)
	fmt.Fprintf(w, "%-10s %12s %12s %12s %14s\n", "mode", "publishes", "pub/s", "fsyncs", "grouped acks")

	modes := []struct {
		name string
		mode catalog.WALMode
	}{
		{"off", catalog.WALOff},
		{"interval", catalog.WALInterval},
		{"always", catalog.WALAlways},
	}
	var rows []WALRow
	for _, m := range modes {
		dir, err := os.MkdirTemp("", "riot-walbench-*")
		if err != nil {
			return nil, err
		}
		row, err := walAblationRun(dir, m.name, m.mode, blockElems, frames, vecLen, sessions, perSession)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-10s %12d %12.0f %12d %14d\n",
			row.Mode, row.Publishes, row.PubPerSec, row.Fsyncs, row.GroupedAcks)
		rows = append(rows, row)
	}
	return rows, nil
}

// walAblationRun times one durability mode end to end.
func walAblationRun(dir, name string, mode catalog.WALMode, blockElems, frames int, vecLen int64, sessions, perSession int) (WALRow, error) {
	pool := buffer.NewSharded(disk.NewDevice(blockElems), frames, sessions)
	cat, err := catalog.OpenWith(dir, pool, catalog.Options{WAL: mode})
	if err != nil {
		return WALRow{}, err
	}
	// One source vector per session, built before the clock starts: the
	// measured loop is publishing, not filling.
	srcs := make([]*array.Vector, sessions)
	for s := range srcs {
		v, err := array.NewVector(pool, fmt.Sprintf("src%d", s), vecLen)
		if err != nil {
			return WALRow{}, err
		}
		if err := v.Fill(func(i int64) float64 { return float64(s)*1e6 + float64(i) }); err != nil {
			return WALRow{}, err
		}
		srcs[s] = v
	}
	start := time.Now()
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func(s int) {
			for i := 0; i < perSession; i++ {
				if _, err := cat.PutVector(fmt.Sprintf("s%d-x%04d", s, i), srcs[s]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(s)
	}
	for s := 0; s < sessions; s++ {
		if err := <-errs; err != nil {
			return WALRow{}, err
		}
	}
	wall := time.Since(start).Nanoseconds()
	row := WALRow{
		Mode:      name,
		Sessions:  sessions,
		Publishes: sessions * perSession,
		WallNS:    wall,
		PubPerSec: float64(sessions*perSession) / (float64(wall) / 1e9),
	}
	if st, on := cat.WALStats(); on {
		row.Fsyncs, row.GroupedAcks = st.Fsyncs, st.GroupedAcks
	}
	if err := cat.Close(); err != nil {
		return WALRow{}, err
	}
	return row, nil
}

// GFlopsRow is one arithmetic-throughput measurement of the tiled
// multiply: a compute kernel against a cold or warm buffer pool.
type GFlopsRow struct {
	Kernel string // "naive" or "micro"
	Pool   string // "cold" (48 frames) or "warm" (everything resident)
	N      int64
	WallNS int64
	GFlops float64 // 2n³ / wall seconds, in 1e9 flop/s
	IOMB   float64 // device traffic during the multiply (≈0 warm)
}

// GFlopsAblation isolates the CPU side of the square-tiled multiply: the
// same super-block I/O schedule runs with the naive tile-at-a-time
// triple loop and with the packed register-blocked 4×4 microkernel,
// against a pool far smaller than the inputs (cold: compute interleaves
// with real block traffic) and a pool that holds all three matrices
// (warm: pure arithmetic throughput). The warm micro/naive ratio is the
// microkernel's speedup, asserted in CI; the cold rows show how much of
// it survives when the I/O schedule also runs. The warm micro rate
// retunes costmodel.FlopsPerSec, so plan CPU estimates printed after
// this ablation reflect the measured machine rather than the 2009
// default.
func GFlopsAblation(n int64, w io.Writer) ([]GFlopsRow, error) {
	const blockElems = 4096 // 64×64 tiles
	const coldFrames = 48
	flops := 2 * float64(n) * float64(n) * float64(n)

	// The expected spot value at (n/2, n/3), from the fill patterns.
	var want float64
	for k := int64(0); k < n; k++ {
		want += float64(((n/2)+k)%13) * float64((k*(n/3))%11)
	}

	var rows []GFlopsRow
	for _, kern := range []linalg.Kernel{linalg.KernelNaive, linalg.KernelMicro} {
		for _, mode := range []string{"cold", "warm"} {
			dev := disk.NewDevice(blockElems)
			frames := coldFrames
			if mode == "warm" {
				// Room for both inputs, the result, and slack: the fill
				// below leaves a and b fully resident, and c's new tiles
				// never force an eviction.
				grid := (int(n) + 63) / 64
				frames = 4 * grid * grid
			}
			pool := buffer.New(dev, frames)
			a, err := array.NewMatrix(pool, "a", n, n, array.Options{Shape: array.SquareTiles})
			if err != nil {
				return nil, err
			}
			b, err := array.NewMatrix(pool, "b", n, n, array.Options{Shape: array.SquareTiles})
			if err != nil {
				return nil, err
			}
			if err := a.Fill(func(i, j int64) float64 { return float64((i + j) % 13) }); err != nil {
				return nil, err
			}
			if err := b.Fill(func(i, j int64) float64 { return float64((i * j) % 11) }); err != nil {
				return nil, err
			}
			if mode == "cold" {
				if err := pool.DropAll(); err != nil {
					return nil, err
				}
			}
			dev.ResetStats()
			start := time.Now()
			c, err := linalg.MatMulTiledKernel(pool, "c", a, b, 1, kern)
			if err != nil {
				return nil, err
			}
			wall := time.Since(start)
			ioBytes := dev.Stats().TotalBytes()
			v, err := c.At(n/2, n/3)
			if err != nil {
				return nil, err
			}
			if v != want {
				return nil, fmt.Errorf("bench: gflops %s/%s diverged: %v != %v", kern, mode, v, want)
			}
			rows = append(rows, GFlopsRow{
				Kernel: kern.String(),
				Pool:   mode,
				N:      n,
				WallNS: wall.Nanoseconds(),
				GFlops: flops / wall.Seconds() / 1e9,
				IOMB:   float64(ioBytes) / (1 << 20),
			})
		}
	}

	// Calibrate the planner's CPU term from the warm microkernel rate —
	// the configuration Explain's cpu estimates describe (compute not
	// hidden behind I/O, production kernel).
	var calibrated float64
	for _, r := range rows {
		if r.Kernel == "micro" && r.Pool == "warm" {
			calibrated = r.GFlops * 1e9
			costmodel.Calibrate(calibrated)
		}
	}

	if w != nil {
		fmt.Fprintf(w, "GFLOP/s ablation: %dx%d square-tiled multiply (2n³ = %.2e flops), naive vs microkernel\n", n, n, flops)
		fmt.Fprintf(w, "%-8s %-6s %14s %10s %10s\n", "kernel", "pool", "wall", "GFLOP/s", "IO-MB")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s %-6s %14s %10.2f %10.1f\n",
				r.Kernel, r.Pool, time.Duration(r.WallNS), r.GFlops, r.IOMB)
		}
		if calibrated > 0 {
			fmt.Fprintf(w, "calibrated costmodel.FlopsPerSec = %.3e flop/s (warm microkernel)\n", calibrated)
		}
	}
	return rows, nil
}
