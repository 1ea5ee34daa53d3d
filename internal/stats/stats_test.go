package stats

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamMoments(t *testing.T) {
	var s, a, b Stream
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for i, x := range xs {
		s.Add(x)
		if i < 3 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
	a.Merge(b)
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("merged mean = %g, want 5", a.Mean())
	}
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Mean() != 0 {
		t.Error("empty stream must report zeros")
	}
	s.Merge(Stream{})
	if s.Mean() != 0 {
		t.Error("merging an empty stream must keep zeros")
	}
}

func TestSeriesQuantiles(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.P50(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %g, want 50.5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Q0 = %g, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("Q1 = %g, want 100", got)
	}
	if got := s.P99(); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("P99 = %g, want 99.01", got)
	}
}

func TestSeriesQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Series
	for i := 0; i < 1000; i++ {
		s.Add(rng.NormFloat64())
	}
	f := func(a, b uint16) bool {
		q1 := float64(a) / 65535
		q2 := float64(b) / 65535
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return s.Quantile(q1) <= s.Quantile(q2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestSeriesAddAfterQuantile(t *testing.T) {
	var s Series
	s.Add(3)
	s.Add(1)
	if s.P50() != 2 {
		t.Fatalf("median = %g", s.P50())
	}
	s.Add(2) // must re-sort lazily
	if s.P50() != 2 {
		t.Errorf("median after add = %g", s.P50())
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	if m.Rate() != 1 {
		t.Errorf("empty meter rate = %g, want 1", m.Rate())
	}
	m.Observe(true)
	m.Observe(true)
	m.Observe(false)
	if m.Rate() != 2.0/3 {
		t.Errorf("rate = %g", m.Rate())
	}
	if m.Total() != 3 {
		t.Errorf("total = %d", m.Total())
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("beta", 12345.0)
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "alpha") {
		t.Errorf("render missing content:\n%s", s)
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV lines = %d, want 3", len(lines))
	}
	if lines[0] != "name,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
}
