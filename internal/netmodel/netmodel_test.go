package netmodel

import (
	"math"
	"strings"
	"testing"
)

func TestTraceSegments(t *testing.T) {
	l, err := NewTrace("trace", []float64{0, 10, 20}, []float64{Mbps(1), Mbps(10), Mbps(2)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.RateAt(-5); got != Mbps(1) {
		t.Errorf("RateAt(-5) = %g", got)
	}
	if got := l.RateAt(0); got != Mbps(1) {
		t.Errorf("RateAt(0) = %g", got)
	}
	if got := l.RateAt(9.99); got != Mbps(1) {
		t.Errorf("RateAt(9.99) = %g", got)
	}
	if got := l.RateAt(10); got != Mbps(10) {
		t.Errorf("RateAt(10) = %g", got)
	}
	if got := l.RateAt(100); got != Mbps(2) {
		t.Errorf("RateAt(100) = %g", got)
	}
	if got := l.NextChange(0); got != 10 {
		t.Errorf("NextChange(0) = %g", got)
	}
	if got := l.NextChange(10); got != 20 {
		t.Errorf("NextChange(10) = %g", got)
	}
	if got := l.NextChange(20); !math.IsInf(got, 1) {
		t.Errorf("NextChange(20) = %g, want +Inf", got)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace("bad", []float64{0, 0}, []float64{1, 2}, 0); err == nil {
		t.Error("accepted non-increasing times")
	}
	if _, err := NewTrace("bad", []float64{0}, []float64{-1}, 0); err == nil {
		t.Error("accepted negative rate")
	}
	if _, err := NewTrace("bad", nil, nil, 0); err == nil {
		t.Error("accepted empty trace")
	}
}

func TestFadingDeterministic(t *testing.T) {
	cfg := FadingConfig{
		States: []float64{Mbps(2), Mbps(20), Mbps(50)}, MeanDwell: 5,
		Horizon: 1000, RTT: 0.01, Seed: 42,
	}
	a, err := NewFading("wlan", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewFading("wlan", cfg)
	for _, tt := range []float64{0, 1, 17.3, 500, 999} {
		if a.RateAt(tt) != b.RateAt(tt) {
			t.Fatalf("fading link not deterministic at t=%g", tt)
		}
	}
	// Rates only take configured state values.
	for _, r := range a.Rates {
		ok := false
		for _, s := range cfg.States {
			if r == s {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("unexpected rate %g", r)
		}
	}
	// The chain must actually change state.
	if len(a.Times) < 50 {
		t.Errorf("suspiciously few segments: %d", len(a.Times))
	}
}

func TestFadingValidation(t *testing.T) {
	if _, err := NewFading("x", FadingConfig{States: []float64{1}}); err == nil {
		t.Error("accepted single-state fading config")
	}
	// Each of these would otherwise loop without bound or past memory; the
	// error must come back at once and name the link.
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name           string
		dwell, horizon float64
	}{
		{"zero dwell", 0, 1},
		{"negative horizon", 1, -1},
		{"NaN dwell", nan, 10},
		{"NaN horizon", 1, nan},
		{"infinite dwell", inf, 10},
		{"infinite horizon", 8, inf},
		{"horizon past the dwell bound", 8, 1e18},
		{"one dwell past the bound", 1e-3, 1e3 * (1 + 1e-9)},
	} {
		_, err := NewFading("lnk", FadingConfig{States: []float64{1, 2}, MeanDwell: tc.dwell, Horizon: tc.horizon})
		if err == nil || !strings.Contains(err.Error(), `"lnk"`) {
			t.Errorf("%s: error %v, want one naming the link", tc.name, err)
		}
	}
}

func TestMeanRate(t *testing.T) {
	l, err := NewTrace("trace", []float64{0, 10}, []float64{Mbps(10), Mbps(30)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := MeanRate(l, 20)
	want := Mbps(20)
	if math.Abs(got-want) > 1 {
		t.Errorf("mean rate = %g, want %g", got, want)
	}
	s := NewStatic("eth", Mbps(5), 0)
	if got := MeanRate(s, 0); got != Mbps(5) {
		t.Errorf("static mean = %g", got)
	}
}

func TestMeanRateConvergesToStateAverage(t *testing.T) {
	// With symmetric two-state fading, the long-run mean approaches the
	// average of the states.
	states := []float64{Mbps(4), Mbps(36)}
	link, err := NewFading("wlan", FadingConfig{
		States: states, MeanDwell: 1, Horizon: 5000, RTT: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := MeanRate(link, 5000)
	want := (states[0] + states[1]) / 2
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("long-run mean %.3g, want ~%.3g", got, want)
	}
}

func TestStaticPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStatic("bad", 0, 0)
}

// TestConstructorsRefuseNonFiniteRates: every constructor refuses a rate that
// is not finite and positive — NaN and +Inf as well as zero and negatives —
// and a trace refuses a NaN time, so every Link reports finite positive rates
// at finite times.
func TestConstructorsRefuseNonFiniteRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range []float64{0, -1, nan, inf, -inf} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStatic accepted rate %g", r)
				}
			}()
			NewStatic("bad", r, 0)
		}()
		if _, err := NewTrace("bad", []float64{0, 1}, []float64{1, r}, 0); err == nil {
			t.Errorf("NewTrace accepted rate %g", r)
		}
		if _, err := NewFading("bad", FadingConfig{States: []float64{r, 1}, MeanDwell: 1, Horizon: 10}); err == nil {
			t.Errorf("NewFading accepted state %g", r)
		}
	}
	for _, times := range [][]float64{{nan}, {nan, 1}, {0, nan}, {0, 1, nan}} {
		rates := make([]float64, len(times))
		for i := range rates {
			rates[i] = 1
		}
		if _, err := NewTrace("bad", times, rates, 0); err == nil {
			t.Errorf("NewTrace accepted times %v", times)
		}
	}
}
