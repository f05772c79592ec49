package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is the highest nearest-rank percentile of a sample that still
// has at least tailBeyond samples above it.
type tailStat struct {
	Value      float64 // the sample at that rank
	Percentile float64 // 100·rank/N
	Beyond     int     // samples ranked above it (tailBeyond unless N is too small)
	N          int
}

// tail picks the sample at rank N-tailBeyond (1-based, ascending), whose
// nearest-rank percentile is 100·(N-tailBeyond)/N and which has exactly
// tailBeyond samples beyond it. With tailBeyond or fewer samples no rank
// qualifies; the maximum is returned with Beyond = 0 so the caller can
// see the tail is unsupported.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tailStat{Value: s[n-1], Percentile: 100, Beyond: 0, N: n}
	}
	k := n - tailBeyond // 1-based rank
	return tailStat{Value: s[k-1], Percentile: 100 * float64(k) / float64(n), Beyond: tailBeyond, N: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relClose reports whether got is within rel of want, relative to
// max(|want|, floor). NaN and infinite results are never close.
func relClose(got, want, rel, floor float64) bool {
	scale := math.Max(math.Abs(want), floor)
	return math.Abs(got-want) <= rel*scale
}
