package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the p-th quantile of an ascending sample, interpolated
// linearly between the two nearest ranks (the common "type 7" estimate):
// with few samples it moves smoothly where a nearest-rank pick would jump
// from one sample to the next. It returns 0 for an empty sample.
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	h := math.Min(math.Max(p, 0), 1) * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return asc[n-1]
	}
	return asc[lo] + (h-float64(lo))*(asc[lo+1]-asc[lo])
}

// median is the 50th percentile of xs (any order).
func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it in a sample of n — below that a
// "tail" is one or two outliers, not a percentile. ok is false when even
// p75 has fewer than ten samples beyond it (n < 40).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first and third quartile of xs by the exclusive
// method, the one Python's statistics.quantiles(xs, n=4) uses, so the
// spread table of -check is the figure the acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		if n == 1 {
			return asc[0], asc[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
