// Package stats provides the measurement plumbing shared by the simulator
// and the experiment harness: streaming moments, empirical quantiles and
// deadline accounting.
package stats

import (
	"math"
	"sort"
)

// Stream accumulates streaming moments using Welford's algorithm.
type Stream struct {
	n          int64
	mean, m2   float64
	min, max   float64
	everyFirst bool
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if !s.everyFirst {
		s.min, s.max = x, x
		s.everyFirst = true
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations.
func (s *Stream) Count() int64 { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Merge folds another stream's moments into s (Chan et al.'s parallel
// Welford update), as if s had also observed everything o observed.
func (s *Stream) Merge(o Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	tot := n1 + n2
	d := o.mean - s.mean
	s.mean += d * n2 / tot
	s.m2 += o.m2 + d*d*n1*n2/tot
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
}

// Series collects raw observations for exact quantiles. Use for
// simulation-scale data (up to a few million points).
type Series struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Series) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Grow pre-sizes the series so the next n additions don't reallocate.
func (s *Series) Grow(n int) {
	if cap(s.xs)-len(s.xs) >= n {
		return
	}
	xs := make([]float64, len(s.xs), len(s.xs)+n)
	copy(xs, s.xs)
	s.xs = xs
}

// Merge appends another series' observations (in their current order) to s.
func (s *Series) Merge(o *Series) {
	if o == nil || len(o.xs) == 0 {
		return
	}
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Series) Count() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 if empty).
func (s *Series) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th empirical quantile (nearest-rank with linear
// interpolation), q in [0, 1]. Returns 0 if the series is empty.
func (s *Series) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if q <= 0 {
		s.ensureSorted()
		return s.xs[0]
	}
	if q >= 1 {
		s.ensureSorted()
		return s.xs[len(s.xs)-1]
	}
	s.ensureSorted()
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// P50 returns the median.
func (s *Series) P50() float64 { return s.Quantile(0.50) }

// P95 returns the 95th percentile.
func (s *Series) P95() float64 { return s.Quantile(0.95) }

// P99 returns the 99th percentile.
func (s *Series) P99() float64 { return s.Quantile(0.99) }

// Meter counts boolean outcomes (e.g. deadline met / missed).
type Meter struct {
	hits, total int64
}

// Observe records one outcome.
func (m *Meter) Observe(hit bool) {
	m.total++
	if hit {
		m.hits++
	}
}

// Rate returns hits/total (1 when nothing was observed, matching the
// convention that an empty deadline meter reports full satisfaction).
func (m *Meter) Rate() float64 {
	if m.total == 0 {
		return 1
	}
	return float64(m.hits) / float64(m.total)
}

// Merge folds another meter's observations into m.
func (m *Meter) Merge(o Meter) {
	m.hits += o.hits
	m.total += o.total
}

// Total returns the number of observations.
func (m *Meter) Total() int64 { return m.total }
