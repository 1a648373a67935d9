package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowSpread is (max−min)/median of a metric's windows in percent: how
// much the windows of one phase disagree.
func windowSpread(perWindow []float64) float64 {
	mid := median(perWindow)
	if len(perWindow) == 0 || mid == 0 {
		return 0
	}
	lo, hi := perWindow[0], perWindow[0]
	for _, x := range perWindow {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return 100 * (hi - lo) / math.Abs(mid)
}

// windowOf maps an offset into a phase of the given length onto one of n
// equal windows; offsets at or past the end land in the last window.
func windowOf(offset, phase float64, n int) int {
	w := int(offset / phase * float64(n))
	if w < 0 {
		return 0
	}
	if w >= n {
		return n - 1
	}
	return w
}
