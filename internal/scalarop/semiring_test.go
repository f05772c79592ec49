package scalarop

import (
	"math"
	"testing"
)

// ringSamples are the float64s the law tests quantify over. They avoid
// NaN (no ring law survives NaN) and mix signs, magnitudes, and the
// infinities the tropical rings use as their Zero.
func ringSamples(r *Semiring) []float64 {
	xs := []float64{0, 1, -1, 0.5, 2, 3.25, -7, 100, 1e6, r.Zero, r.One}
	// A deterministic pseudo-random tail widens coverage without
	// test-order flakiness.
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 24; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v := float64(int64(state%2001)-1000) / 8
		xs = append(xs, v)
	}
	return xs
}

// eq compares ring elements: exact, except both-NaN never occurs by
// construction and -0 equals 0 under ==, which is what the kernels use.
func eq(a, b float64) bool { return a == b }

// TestSemiringLaws holds every registered ring to the semi-ring axioms
// on sampled floats: ⊕ associativity and commutativity with identity
// Zero, ⊗ associativity with identity One, Zero annihilation under ⊗,
// and distributivity of ⊗ over ⊕.
func TestSemiringLaws(t *testing.T) {
	for _, name := range RingNames() {
		r, err := Ring(name)
		if err != nil {
			t.Fatalf("Ring(%q): %v", name, err)
		}
		xs := ringSamples(r)
		// The standard ring satisfies distributivity and associativity
		// only up to floating-point rounding; restrict its samples to
		// modest integers where + and × are exact. The tropical rings'
		// min/max and + are exact on every sample.
		if r.IsStandard() {
			xs = []float64{0, 1, -1, 2, -3, 5, 8, -13, 21, 64}
		}
		// The boolean ring's carrier is {0, 1}: its operators collapse
		// every nonzero input to 1, so the laws are stated there.
		if r.Name == "boolean" {
			xs = []float64{0, 1}
		}
		for _, a := range xs {
			if !eq(r.Add(r.Zero, a), a) || !eq(r.Add(a, r.Zero), a) {
				t.Errorf("%s: Zero is not the ⊕ identity at %g", name, a)
			}
			one := r.Mul(r.One, a)
			if r.Name == "boolean" {
				// Boolean collapses every nonzero to 1; identity holds in
				// the ring's value domain {0, 1}.
				if !eq(one, FromBool(a != 0)) {
					t.Errorf("boolean: One ⊗ %g = %g", a, one)
				}
			} else if !eq(one, a) || !eq(r.Mul(a, r.One), a) {
				t.Errorf("%s: One is not the ⊗ identity at %g", name, a)
			}
			if !eq(r.Mul(r.Zero, a), r.Zero) || !eq(r.Mul(a, r.Zero), r.Zero) {
				t.Errorf("%s: Zero does not annihilate at %g", name, a)
			}
			for _, b := range xs {
				if !eq(r.Add(a, b), r.Add(b, a)) {
					t.Errorf("%s: ⊕ not commutative at (%g, %g)", name, a, b)
				}
				for _, c := range xs {
					if !eq(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
						t.Errorf("%s: ⊕ not associative at (%g, %g, %g)", name, a, b, c)
					}
					if !eq(r.Mul(r.Mul(a, b), c), r.Mul(a, r.Mul(b, c))) {
						t.Errorf("%s: ⊗ not associative at (%g, %g, %g)", name, a, b, c)
					}
					if !eq(r.Mul(a, r.Add(b, c)), r.Add(r.Mul(a, b), r.Mul(a, c))) {
						t.Errorf("%s: ⊗ does not distribute over ⊕ at (%g, %g, %g)", name, a, b, c)
					}
				}
			}
		}
	}
}

func TestRingLookup(t *testing.T) {
	if r, err := Ring(""); err != nil || !r.IsStandard() {
		t.Fatalf("Ring(\"\") = %v, %v; want the standard ring", r, err)
	}
	if _, err := Ring("tropical-deluxe"); err == nil {
		t.Fatal("Ring of an unknown name should fail")
	}
	want := []string{"boolean", "maxplus", "minplus", "standard"}
	got := RingNames()
	if len(got) != len(want) {
		t.Fatalf("RingNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RingNames() = %v, want %v", got, want)
		}
	}
}

// TestRingKernels checks the ring's multiply-add: the standard ring is
// plain IEEE y + a*b with nothing skipped (0·Inf is NaN), every other
// ring applies the storage-domain update (0 is absent), and the row
// form gives each element exactly the scalar form's update.
func TestRingKernels(t *testing.T) {
	xs := []float64{3, 0, -2, 7.5, math.Inf(1), 1, -0.25, 4, math.Inf(-1), 0}
	ys := []float64{1, 5, -1, 0, 2, math.Inf(1), 8, -3, 0, 0}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, name := range RingNames() {
		r, _ := Ring(name)
		for _, a := range []float64{2, 0, math.Inf(1), math.Inf(-1)} {
			y := append([]float64(nil), ys...)
			r.MulAddRow(y, a, xs)
			for i := range y {
				want := ys[i] + a*xs[i]
				if !r.IsStandard() {
					m := r.Mul(a, xs[i])
					switch {
					case a == 0 || a == r.Zero || xs[i] == 0 || xs[i] == r.Zero || m == r.Zero:
						want = ys[i]
					case ys[i] == 0:
						want = m
					default:
						want = r.Add(ys[i], m)
					}
				}
				if !same(y[i], want) {
					t.Errorf("%s MulAddRow(a=%g)[%d] = %g, want %g", name, a, i, y[i], want)
				}
				if got := r.MulAdd(ys[i], a, xs[i]); !same(got, y[i]) {
					t.Errorf("%s MulAdd(%g, %g, %g) = %g, row form gave %g", name, ys[i], a, xs[i], got, y[i])
				}
			}
		}
	}
}

// TestFoldIdentitySeeds pins the fold kernels' behavior against the
// tropical identities: folding from ±Inf must behave as folding from
// the ring's ⊕-identity, with values of the same infinity never
// displacing it incorrectly, and NaN never displacing the accumulator.
func TestFoldIdentitySeeds(t *testing.T) {
	if got := MinSlice(math.Inf(1), []float64{math.Inf(1), 5, math.Inf(1)}); got != 5 {
		t.Errorf("MinSlice seeded +Inf over {+Inf, 5, +Inf} = %g, want 5", got)
	}
	if got := MinSlice(math.Inf(1), []float64{math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("MinSlice seeded +Inf over {+Inf} = %g, want +Inf", got)
	}
	if got := MaxSlice(math.Inf(-1), []float64{math.Inf(-1), -5}); got != -5 {
		t.Errorf("MaxSlice seeded -Inf over {-Inf, -5} = %g, want -5", got)
	}
	if got := MinSlice(math.Inf(1), []float64{math.NaN(), 3}); got != 3 {
		t.Errorf("MinSlice with a NaN = %g, want 3 (NaN never displaces)", got)
	}
	if got := MaxSlice(math.Inf(-1), []float64{math.NaN()}); !math.IsInf(got, -1) {
		t.Errorf("MaxSlice over {NaN} = %g, want the -Inf seed", got)
	}
}

// TestZeroPredicateEdges pins the zero-classification predicates on the
// NaN/Inf scalar edges that become load-bearing once identities come
// from a ring: a NaN or Inf scalar must never let a zero-range proof
// through an operator that would produce NaN there.
func TestZeroPredicateEdges(t *testing.T) {
	cases := []struct {
		op         string
		s          float64
		scalarLeft bool
		want       bool
	}{
		{"*", 3, false, true},
		{"*", math.NaN(), false, false},  // 0 · NaN = NaN
		{"*", math.Inf(1), false, false}, // 0 · Inf = NaN
		{"*", math.Inf(-1), true, false},
		{"+", 0, false, true},
		{"+", math.NaN(), false, false},
		{"-", 0, true, true},            // 0 - x at x = 0
		{"/", math.Inf(1), false, true}, // 0 / Inf = 0
		{"/", 0, false, false},          // 0 / 0 = NaN
		{"/", math.NaN(), false, false},
		{"&", math.NaN(), true, true}, // NaN & 0: != 0 short-circuits to 0
		{"^", math.NaN(), true, false},
	}
	for _, c := range cases {
		if got := BinZeroWithScalar(c.op, c.s, c.scalarLeft); got != c.want {
			t.Errorf("BinZeroWithScalar(%q, %g, left=%v) = %v, want %v", c.op, c.s, c.scalarLeft, got, c.want)
		}
	}
}

// TestBinZeroEitherDerived checks the probe-derived annihilator
// classification: multiplication and logical-and have intersection
// semantics, and nothing else in the operator table does.
func TestBinZeroEitherDerived(t *testing.T) {
	want := map[string]bool{
		"*": true, "&": true,
		"+": false, "-": false, "/": false, "^": false, "%%": false,
		"==": false, "!=": false, "<": false, "<=": false, ">": false, ">=": false,
		"|": false,
	}
	for op, w := range want {
		if got := BinZeroEither(op); got != w {
			t.Errorf("BinZeroEither(%q) = %v, want %v", op, got, w)
		}
	}
	if BinZeroEither("no-such-op") {
		t.Error("BinZeroEither of an unknown op must be false")
	}
}
