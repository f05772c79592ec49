package engine

import (
	"math"
	"testing"

	"riot/internal/riotdb"
)

// engines under test, freshly constructed per call.
func allEngines() []Engine {
	tm := DefaultTimeModel
	return []Engine{
		NewPlainR(1024, 4096, 64, tm),
		NewRIOTDB(riotdb.Strawman, 1024, 1<<22, tm),
		NewRIOTDB(riotdb.MatNamed, 1024, 1<<22, tm),
		NewRIOTDB(riotdb.Full, 1024, 1<<22, tm),
		NewRIOT(1024, 1<<22, tm),
	}
}

// runExample1 executes the paper's Example 1 on any engine and returns
// z's values in sample order.
func runExample1(t *testing.T, e Engine, n, k int64) []float64 {
	t.Helper()
	x, err := e.NewVector(n, func(i int64) float64 { return float64(i % 997) })
	ok(t, err)
	y, err := e.NewVector(n, func(i int64) float64 { return float64(i % 991) })
	ok(t, err)
	// Measure the computation, not the initial data load: the paper's
	// inputs already reside in MySQL / memory when the clock starts.
	e.ResetStats()
	dist := func(v Value, c float64) Value {
		d, err := e.ArithScalar("-", v, c, false)
		ok(t, err)
		sq, err := e.Arith("*", d, d)
		ok(t, err)
		return sq
	}
	s1, err := e.Arith("+", dist(x, 3), dist(y, 4))
	ok(t, err)
	r1, err := e.Map("sqrt", s1)
	ok(t, err)
	s2, err := e.Arith("+", dist(x, 100), dist(y, 200))
	ok(t, err)
	r2, err := e.Map("sqrt", s2)
	ok(t, err)
	d, err := e.Arith("+", r1, r2)
	ok(t, err)
	d, err = e.Assign(d)
	ok(t, err)
	s, err := e.Sample(n, k, 42)
	ok(t, err)
	z, err := e.IndexBy(d, s)
	ok(t, err)
	z, err = e.Assign(z)
	ok(t, err)
	out, err := e.Fetch(z, -1)
	ok(t, err)
	return out
}

func TestExample1AgreesAcrossEngines(t *testing.T) {
	const n, k = 20000, 25
	idx := riotdb.SampleIndices(n, k, 42)
	want := make([]float64, k)
	for p, i := range idx {
		xi, yi := float64(i%997), float64(i%991)
		want[p] = math.Sqrt((xi-3)*(xi-3)+(yi-4)*(yi-4)) +
			math.Sqrt((xi-100)*(xi-100)+(yi-200)*(yi-200))
	}
	for _, e := range allEngines() {
		got := runExample1(t, e, n, k)
		if len(got) != k {
			t.Fatalf("%s: %d results", e.Name(), len(got))
		}
		for p := range want {
			if math.Abs(got[p]-want[p]) > 1e-9 {
				t.Fatalf("%s: z[%d]=%v want %v", e.Name(), p, got[p], want[p])
			}
		}
	}
}

func TestUpdateAndRangeAcrossEngines(t *testing.T) {
	// Figure 2's program: b <- a^2; b[b>100] <- 100; b[0:10].
	for _, e := range allEngines() {
		a, err := e.NewVector(500, func(i int64) float64 { return float64(i) })
		ok(t, err)
		b, err := e.Arith("*", a, a)
		ok(t, err)
		b, err = e.UpdateWhere(b, ">", 100, 100)
		ok(t, err)
		head, err := e.Range(b, 0, 10)
		ok(t, err)
		out, err := e.Fetch(head, -1)
		ok(t, err)
		if len(out) != 10 {
			t.Fatalf("%s: %d elements", e.Name(), len(out))
		}
		for i, v := range out {
			want := math.Min(float64(i*i), 100)
			if v != want {
				t.Fatalf("%s: out[%d]=%v want %v", e.Name(), i, v, want)
			}
		}
	}
}

func TestSumAcrossEngines(t *testing.T) {
	for _, e := range allEngines() {
		v, err := e.NewVector(1000, func(i int64) float64 { return float64(i) })
		ok(t, err)
		d, err := e.ArithScalar("*", v, 2, false)
		ok(t, err)
		s, err := e.Sum(d)
		ok(t, err)
		if s != 999000 {
			t.Fatalf("%s: sum=%v", e.Name(), s)
		}
	}
}

func TestMatMulAcrossEngines(t *testing.T) {
	const n = 8
	ref := make([][]float64, n)
	av := func(i, j int64) float64 { return float64(i + 2*j) }
	bv := func(i, j int64) float64 { return float64(i*j) - 3 }
	for i := range ref {
		ref[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				ref[i][j] += av(int64(i), int64(k)) * bv(int64(k), int64(j))
			}
		}
	}
	for _, e := range allEngines() {
		if e.Name() == "plain-r" {
			continue // exercised separately; Fetch of matrices differs
		}
		a, err := e.NewMatrix(n, n, av)
		ok(t, err)
		b, err := e.NewMatrix(n, n, bv)
		ok(t, err)
		c, err := e.MatMul(a, b)
		ok(t, err)
		out, err := e.Fetch(c, -1)
		ok(t, err)
		if len(out) != n*n {
			t.Fatalf("%s: %d cells", e.Name(), len(out))
		}
		for k, v := range out {
			if math.Abs(v-ref[k/n][k%n]) > 1e-9 {
				t.Fatalf("%s: cell %d = %v want %v", e.Name(), k, v, ref[k/n][k%n])
			}
		}
	}
}

func TestDimsAndLength(t *testing.T) {
	for _, e := range allEngines() {
		v, err := e.NewVector(42, func(int64) float64 { return 0 })
		ok(t, err)
		if e.Length(v) != 42 {
			t.Fatalf("%s: length=%d", e.Name(), e.Length(v))
		}
		r, c, isVec := e.Dims(v)
		if r != 42 || c != 1 || !isVec {
			t.Fatalf("%s: dims=(%d,%d,%v)", e.Name(), r, c, isVec)
		}
	}
}

// Figure 1's qualitative result at laptop scale: the strawman does the
// most database I/O, deferral reduces it step by step, plain R pays
// mostly random (thrashing) traffic while the database variants are
// mostly sequential, and the next-gen engine beats them all. (The full
// paper-scale figure, where index probes make RIOT-DB full orders of
// magnitude cheaper, is regenerated by cmd/riot-bench -figure 1.)
func TestFigure1ShapeSmall(t *testing.T) {
	const n = 1 << 17 // 128K elements per vector
	const k = 100
	pageElems := 1024
	// Memory budget: runtime + ~2 vectors (the paper's 84MB analogue).
	capPages := 2*int(n/int64(pageElems)) + 40
	runtime := 24

	plain := NewPlainR(pageElems, capPages, runtime, DefaultTimeModel)
	runExample1(t, plain, n, k)
	plainRep := plain.Report()

	memElems := int64(capPages-runtime) * int64(pageElems)
	straw := NewRIOTDB(riotdb.Strawman, pageElems, memElems, DefaultTimeModel)
	runExample1(t, straw, n, k)
	strawIO := straw.Report().IOBytes

	matnamed := NewRIOTDB(riotdb.MatNamed, pageElems, memElems, DefaultTimeModel)
	runExample1(t, matnamed, n, k)
	matnamedIO := matnamed.Report().IOBytes

	full := NewRIOTDB(riotdb.Full, pageElems, memElems, DefaultTimeModel)
	runExample1(t, full, n, k)
	fullRep := full.Report()

	ng := NewRIOT(pageElems, memElems, DefaultTimeModel)
	runExample1(t, ng, n, k)
	ngIO := ng.Report().IOBytes

	if plainRep.IOBytes == 0 {
		t.Fatal("plain R did not page under the cap")
	}
	if plainRep.RandOps < plainRep.SeqOps {
		t.Fatalf("plain R paging should be mostly random: seq=%d rand=%d",
			plainRep.SeqOps, plainRep.RandOps)
	}
	if strawIO <= matnamedIO {
		t.Fatalf("strawman (%d) should out-I/O matnamed (%d)", strawIO, matnamedIO)
	}
	if matnamedIO <= fullRep.IOBytes {
		t.Fatalf("matnamed (%d) should out-I/O full (%d)", matnamedIO, fullRep.IOBytes)
	}
	if fullRep.SimSeconds >= plainRep.SimSeconds {
		t.Fatalf("full deferral (%.2fs) should beat plain R (%.2fs)",
			fullRep.SimSeconds, plainRep.SimSeconds)
	}
	if ngIO > fullRep.IOBytes {
		t.Fatalf("riot-ng (%d) should be at or below riot-db full (%d)", ngIO, fullRep.IOBytes)
	}
}

// TestRIOTDBExample1IODeterministic: a RIOT-DB run's I/O depends only on
// its inputs. The SQL optimizer's greedy join order must not depend on
// map iteration order, or Figure 1's comparisons can flip between runs.
func TestRIOTDBExample1IODeterministic(t *testing.T) {
	const n = 1 << 13
	const k = 100
	pageElems := 256
	memElems := int64(2*int(n/int64(pageElems))+16) * int64(pageElems)
	for _, mode := range []riotdb.Mode{riotdb.Strawman, riotdb.MatNamed, riotdb.Full} {
		var first int64
		for run := 0; run < 3; run++ {
			e := NewRIOTDB(mode, pageElems, memElems, DefaultTimeModel)
			runExample1(t, e, n, k)
			io := e.Report().IOBytes
			if run == 0 {
				first = io
			} else if io != first {
				t.Fatalf("%s: run %d read and wrote %d bytes, run 0 %d", e.Name(), run, io, first)
			}
		}
	}
}

func ok(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
