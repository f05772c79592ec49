package scalarop

import "math"

// This file holds the slice kernels: whole-chunk loops over raw
// []float64 that the hot paths (exec's fused evaluator, linalg's
// factorizations) call once per chunk instead of making one indirect
// BinFunc/UnaryFunc call per element. Every kernel is observationally
// identical to mapping its scalar counterpart — the property tests in
// slices_test.go hold each one to that across the full op table — and
// rare ops fall back to exactly that mapping, so adding an operator to
// Bin/Unary never leaves the slice path behind.

// BinSliceFunc applies a binary operator elementwise over equal-length
// slices: dst[i] = op(a[i], b[i]). dst may alias a or b.
type BinSliceFunc func(dst, a, b []float64)

// BinSliceScalarFunc applies a binary operator between a slice and a
// broadcast scalar: dst[i] = op(src[i], s) (or op(s, src[i]) for the
// scalar-left variant). dst may alias src.
type BinSliceScalarFunc func(dst, src []float64, s float64)

// UnarySliceFunc applies a unary function elementwise: dst[i] =
// f(src[i]). dst may alias src.
type UnarySliceFunc func(dst, src []float64)

// AddSlices is the vectorized "+": dst[i] = a[i] + b[i].
func AddSlices(dst, a, b []float64) {
	_ = b[len(dst)-1]
	for i, av := range a {
		dst[i] = av + b[i]
	}
}

// ScaleSlice is the vectorized scalar "*": dst[i] = src[i] * s.
func ScaleSlice(dst, src []float64, s float64) {
	for i, v := range src {
		dst[i] = v * s
	}
}

// AXPY accumulates y[i] += a * x[i] — the building block the LU update
// loops share with the standard ring's Semiring.MulAddRow. x must be at
// least as long as y.
func AXPY(y, x []float64, a float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += a * v
	}
}

// MapSlice is the generic unary fallback: dst[i] = f(src[i]).
func MapSlice(dst, src []float64, f UnaryFunc) {
	for i, v := range src {
		dst[i] = f(v)
	}
}

// ZipSlices is the generic binary fallback: dst[i] = f(a[i], b[i]).
func ZipSlices(dst, a, b []float64, f BinFunc) {
	_ = b[len(dst)-1]
	for i, av := range a {
		dst[i] = f(av, b[i])
	}
}

// BinSlices resolves the slice kernel for a binary operator. The
// common arithmetic, comparison, and logical operators get direct
// loops the compiler can keep branch-free; rare ops (^, %%) fall back
// to a ZipSlices over the scalar function, so the kernel table can
// never disagree with Bin.
func BinSlices(op string) (BinSliceFunc, error) {
	switch op {
	case "+":
		return AddSlices, nil
	case "-":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = av - b[i]
			}
		}, nil
	case "*":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = av * b[i]
			}
		}, nil
	case "/":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = av / b[i]
			}
		}, nil
	case "==":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av == b[i])
			}
		}, nil
	case "!=":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av != b[i])
			}
		}, nil
	case "<":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av < b[i])
			}
		}, nil
	case "<=":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av <= b[i])
			}
		}, nil
	case ">":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av > b[i])
			}
		}, nil
	case ">=":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av >= b[i])
			}
		}, nil
	case "&":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av != 0 && b[i] != 0)
			}
		}, nil
	case "|":
		return func(dst, a, b []float64) {
			_ = b[len(dst)-1]
			for i, av := range a {
				dst[i] = FromBool(av != 0 || b[i] != 0)
			}
		}, nil
	}
	f, err := Bin(op)
	if err != nil {
		return nil, err
	}
	return func(dst, a, b []float64) { ZipSlices(dst, a, b, f) }, nil
}

// BinSliceScalar resolves the slice kernel for a binary operator with
// one broadcast scalar operand. scalarLeft selects op(s, src[i]) over
// op(src[i], s) — the distinction matters for every non-commutative
// operator. Rare ops fall back to the scalar function.
func BinSliceScalar(op string, scalarLeft bool) (BinSliceScalarFunc, error) {
	if !scalarLeft {
		switch op {
		case "+":
			return func(dst, src []float64, s float64) {
				for i, v := range src {
					dst[i] = v + s
				}
			}, nil
		case "-":
			return func(dst, src []float64, s float64) {
				for i, v := range src {
					dst[i] = v - s
				}
			}, nil
		case "*":
			return ScaleSlice, nil
		case "/":
			return func(dst, src []float64, s float64) {
				for i, v := range src {
					dst[i] = v / s
				}
			}, nil
		}
	} else {
		switch op {
		case "+":
			return func(dst, src []float64, s float64) {
				for i, v := range src {
					dst[i] = s + v
				}
			}, nil
		case "-":
			return func(dst, src []float64, s float64) {
				for i, v := range src {
					dst[i] = s - v
				}
			}, nil
		case "*":
			return func(dst, src []float64, s float64) {
				for i, v := range src {
					dst[i] = s * v
				}
			}, nil
		case "/":
			return func(dst, src []float64, s float64) {
				for i, v := range src {
					dst[i] = s / v
				}
			}, nil
		}
	}
	f, err := Bin(op)
	if err != nil {
		return nil, err
	}
	if scalarLeft {
		return func(dst, src []float64, s float64) {
			for i, v := range src {
				dst[i] = f(s, v)
			}
		}, nil
	}
	return func(dst, src []float64, s float64) {
		for i, v := range src {
			dst[i] = f(v, s)
		}
	}, nil
}

// UnarySlice resolves the slice kernel for a unary function. sqrt and
// abs get direct loops (both lower to single instructions); the rest
// fall back to MapSlice over the scalar function — their per-element
// cost is dominated by the math call itself.
func UnarySlice(name string) (UnarySliceFunc, error) {
	switch name {
	case "sqrt", "SQRT":
		return SqrtSlice, nil
	case "abs", "ABS":
		return AbsSlice, nil
	}
	f, err := Unary(name)
	if err != nil {
		return nil, err
	}
	return func(dst, src []float64) { MapSlice(dst, src, f) }, nil
}

// SumSlice folds xs into acc left to right — the same accumulation
// order as the scalar reduction loop it replaces, so chunked reductions
// stay bit-identical to the sequential sweep.
func SumSlice(acc float64, xs []float64) float64 {
	for _, v := range xs {
		acc += v
	}
	return acc
}

// MinSlice folds xs into acc under strict < — seeding with +Inf gives
// the executor's min semantics, including its NaN handling (NaN never
// displaces the accumulator).
func MinSlice(acc float64, xs []float64) float64 {
	for _, v := range xs {
		if v < acc {
			acc = v
		}
	}
	return acc
}

// MaxSlice folds xs into acc under strict >; see MinSlice.
func MaxSlice(acc float64, xs []float64) float64 {
	for _, v := range xs {
		if v > acc {
			acc = v
		}
	}
	return acc
}

// SqrtSlice is the vectorized sqrt: dst[i] = math.Sqrt(src[i]).
func SqrtSlice(dst, src []float64) {
	for i, v := range src {
		dst[i] = math.Sqrt(v)
	}
}

// AbsSlice is the vectorized abs: dst[i] = math.Abs(src[i]).
func AbsSlice(dst, src []float64) {
	for i, v := range src {
		dst[i] = math.Abs(v)
	}
}
