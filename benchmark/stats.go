package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice. Like the client it is the
// instrument's own rather than workload.Percentile, so that it cannot change
// under the benchmark (and it shares rank with samplesBeyond).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n >= 1
// samples: ceil(p/100 * n), less a hair so that 99.9% of 10000 is 9990 and
// not, by floating point, 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond is how many of n samples lie above the nearest-rank p-th
// percentile's position.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentiles are the percentiles a latency is reported at, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// highestSupported returns the highest of tailPercentiles that still has at
// least ten samples beyond it among n samples, or 0 when none has.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), which
// is what the driver's acceptance check uses. It needs two values or more;
// with fewer both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is compared with.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
