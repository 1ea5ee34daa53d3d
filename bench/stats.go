package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of ascending values
// by the nearest-rank rule; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The tolerance keeps 99.9 % of 10000 at rank 9990, not 9991.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// tailLadder are the percentiles a timing's tail may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is a handful of outliers, not a tail.
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that still has
// at least minBeyond of the n samples beyond it; with too few samples for
// any step it falls back to the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if n-rank >= minBeyond {
			best = p
		}
	}
	return best
}

// timing is how the benchmark reports a set of latencies: the median, the
// highest percentile with enough samples beyond it, and the sample count.
type timing struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

// summarize sorts values in place and reduces them to a timing.
func summarize(values []float64) timing {
	sort.Float64s(values)
	p := tailPercentile(len(values))
	return timing{N: len(values), P50: percentile(values, 50), TailPct: p, Tail: percentile(values, p)}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance driver measures run-to-run spread with. It needs at
// least two values.
func quartiles(values []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // after the clamp, as Python does: the ends extrapolate
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
