package telemetry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Len returns the number of recorded events.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	c.Add(-5) // monotone: negative adds are ignored
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter after Add(-5) = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge reads %g", g.Value())
	}
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Fatalf("gauge = %g, want 3.25", g.Value())
	}
}

// TestHistogramObserveBuckets: observations land in the first bucket whose
// bound they do not exceed (a value equal to a bound lands in that bound's
// bucket), past the last bound in the +Inf bucket, and the sum adds up.
func TestHistogramObserveBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 10, 2, 3, 100} {
		h.Observe(v)
	}
	got := r.State().Histograms["h"]
	want := []int64{2, 2, 1, 2}
	if got.Sum != 118 || !slices.Equal(got.Counts, want) {
		t.Fatalf("sum %g buckets %v, want 118 %v", got.Sum, got.Counts, want)
	}
}

func TestNewHistogramValidates(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewHistogram(bounds...); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
}

func TestRegistrySharingAndText(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter lookup is not get-or-create")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge lookup is not get-or-create")
	}
	if r.Histogram("h", 1, 2) != r.Histogram("h", 9, 10) {
		t.Fatal("histogram lookup is not get-or-create")
	}
	r.Counter("replans.full").Add(3)
	r.Counter("replans.cheap").Inc()
	r.Gauge("objective").Set(1.5)
	r.Histogram("drift", 0.1, 0.5).Observe(0.3)

	text := r.Text()
	want := []string{
		"counter replans.cheap 1",
		"counter replans.full 3",
		"gauge objective 1.5",
		"histogram drift count=1 sum=0.3 buckets=le0.1:0,le0.5:1,+inf:0",
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Errorf("text missing %q:\n%s", w, text)
		}
	}
	// Deterministic rendering: same history, byte-identical text.
	if again := r.Text(); again != text {
		t.Fatalf("text not deterministic:\n%s\nvs\n%s", text, again)
	}
	st := r.State()
	if st.Counters["replans.full"] != 3 || st.Gauges["objective"] != 1.5 || st.Histograms["drift"].Sum != 0.3 {
		t.Fatalf("state %+v", st)
	}
}

// TestRegistryTextPinned pins the whole /metrics rendering of a fixed
// registry byte for byte: families in counter, gauge, histogram order, names
// sorted within each, gauges at round-trip precision, and every histogram
// bucket (an empty histogram included) with its +Inf overflow.
func TestRegistryTextPinned(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.samples").Add(12)
	r.Counter("serve.replans.full").Inc()
	r.Gauge("serve.objective").Set(2.0 / 3)
	h := r.Histogram("serve.drift", 0.1, 0.5, 1)
	for _, v := range []float64{0.3, 0.4, 7.5} {
		h.Observe(v)
	}
	r.Histogram("serve.idle", 1, 2)

	const want = "counter serve.replans.full 1\n" +
		"counter serve.samples 12\n" +
		"gauge serve.objective 0.6666666666666666\n" +
		"histogram serve.drift count=3 sum=8.2 buckets=le0.1:0,le0.5:2,le1:0,+inf:1\n" +
		"histogram serve.idle count=0 sum=0 buckets=le1:0,le2:0,+inf:0\n"
	if got := r.Text(); got != want {
		t.Fatalf("text:\n%s\nwant:\n%s", got, want)
	}
}

func TestJournal(t *testing.T) {
	var j Journal
	j.Record(Event{Time: 0, Kind: "initial-plan", Value: 2.5})
	j.Record(Event{Time: 5, Kind: "full-replan", Reason: "drift 0.4 >= 0.2", Value: 2.25})
	j.Record(Event{Time: 10, Kind: "no-change"})
	if j.Len() != 3 {
		t.Fatalf("len = %d", j.Len())
	}
	if j.CountKind("full-replan") != 1 || j.CountKind("missing") != 0 {
		t.Fatal("CountKind wrong")
	}
	evs := j.Events()
	if evs[1].Reason != "drift 0.4 >= 0.2" {
		t.Fatalf("event order/content wrong: %+v", evs)
	}
	text := j.String()
	if !strings.Contains(text, `t=5 full-replan value=2.25 reason="drift 0.4 >= 0.2"`) {
		t.Fatalf("journal text:\n%s", text)
	}
	if lines := strings.Count(text, "\n"); lines != 3 {
		t.Fatalf("journal has %d lines", lines)
	}
}
