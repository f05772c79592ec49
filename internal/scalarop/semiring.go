package scalarop

import (
	"fmt"
	"math"
	"sort"
)

// Semi-ring algebra. A semi-ring (⊕, ⊗) generalizes the (+, ×) pair the
// kernels were written against: ⊕ is associative and commutative with
// identity Zero, ⊗ is associative with identity One, ⊗ distributes over
// ⊕, and Zero annihilates under ⊗ (Zero ⊗ x = Zero). Those are exactly
// the laws the engine's sparse machinery already leans on — an absent
// tile contributes nothing to a product because its values annihilate,
// and skipping a k-step is sound because ⊕-ing Zero changes nothing —
// so any registered ring rides the same I/O schedules the standard ring
// does. Matrix multiplication over minplus is all-pairs shortest paths;
// over boolean it is reachability.
//
// Convention for sparse storage under a non-standard ring: an absent
// (implicitly zero) element denotes the ring's Zero, not 0.0 — for
// minplus a missing edge reads as +Inf. Stored values are taken
// verbatim, so kernels must never produce a stored element equal to
// float64 0 that means anything other than the ring's Zero (the
// closure kernels keep the ⊗-identity diagonal implicit for exactly
// this reason).

// Semiring is one (⊕, ⊗) algebra: Add is ⊕ with identity Zero, Mul is
// ⊗ with identity One and annihilator Zero.
type Semiring struct {
	Name string
	Zero float64 // ⊕-identity and ⊗-annihilator
	One  float64 // ⊗-identity
	Add  BinFunc // ⊕
	Mul  BinFunc // ⊗
}

// IsStandard reports whether this is the (+, ×) ring. The packed
// microkernel applies only to it, and MulAdd runs plain IEEE
// arithmetic for it.
func (r *Semiring) IsStandard() bool { return r.Name == "standard" }

// ringMin and ringMax fold with the same NaN discipline as the
// MinSlice/MaxSlice kernels: a NaN never displaces the accumulator, so
// seeding with the ring identity (±Inf) behaves like the executor's
// reductions.
func ringMin(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

func ringMax(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// rings is the registry of built-in semi-rings. Registration is static:
// the set of rings is part of the engine's semantics (it appears in
// plan provenance, cache hashes, and the wire protocol), so it is not
// extensible at runtime.
var rings = map[string]*Semiring{
	"standard": {
		Name: "standard", Zero: 0, One: 1,
		Add: func(a, b float64) float64 { return a + b },
		Mul: func(a, b float64) float64 { return a * b },
	},
	"minplus": {
		Name: "minplus", Zero: math.Inf(1), One: 0,
		Add: ringMin,
		Mul: func(a, b float64) float64 { return a + b },
	},
	"maxplus": {
		Name: "maxplus", Zero: math.Inf(-1), One: 0,
		Add: ringMax,
		Mul: func(a, b float64) float64 { return a + b },
	},
	"boolean": {
		Name: "boolean", Zero: 0, One: 1,
		Add: func(a, b float64) float64 { return FromBool(a != 0 || b != 0) },
		Mul: func(a, b float64) float64 { return FromBool(a != 0 && b != 0) },
	},
}

// Standard is the (+, ×) ring every legacy code path assumes.
var Standard = rings["standard"]

// Ring resolves a semi-ring by name. The empty string is the standard
// ring, so callers can thread a zero-value ring name end to end without
// special cases.
func Ring(name string) (*Semiring, error) {
	if name == "" {
		return Standard, nil
	}
	if r, ok := rings[name]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("scalarop: unknown semi-ring %q (known: %v)", name, RingNames())
}

// RingNames returns the registered ring names, sorted.
func RingNames() []string {
	out := make([]string, 0, len(rings))
	for name := range rings {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MulAdd returns y ⊕ (a ⊗ b), the one multiply-add every matrix
// kernel runs per pair of elements. For the standard ring it is y + a*b
// in plain IEEE arithmetic: nothing is skipped, so 0·Inf still yields
// NaN, and a kernel skips only the elements a sparse operand does not
// store. Every other ring works in the storage domain, where float64 0
// is absent and denotes Zero: an absent or Zero factor annihilates and
// leaves y as it is, a product equal to Zero adds nothing, and an
// absent y takes the product as it is.
func (r *Semiring) MulAdd(y, a, b float64) float64 {
	if r.IsStandard() {
		return y + a*b
	}
	return r.mulAdd(y, a, b)
}

// MulAddRow is the row form of MulAdd: y[j] = y[j] ⊕ (a ⊗ x[j]) for
// every j, where x is a dense row at least as long as y. Each y[j]
// takes exactly the one update MulAdd would give it, so a kernel may
// mix the two forms without changing a bit.
func (r *Semiring) MulAddRow(y []float64, a float64, x []float64) {
	if r.IsStandard() {
		AXPY(y, x, a)
		return
	}
	if a == 0 || a == r.Zero {
		return
	}
	for j := range y {
		y[j] = r.mulAdd(y[j], a, x[j])
	}
}

// mulAdd is MulAdd for the rings other than the standard one.
func (r *Semiring) mulAdd(y, a, b float64) float64 {
	if a == 0 || a == r.Zero || b == 0 || b == r.Zero {
		return y
	}
	m := r.Mul(a, b)
	switch {
	case m == r.Zero:
		return y
	case y == 0:
		return m
	}
	return r.Add(y, m)
}
