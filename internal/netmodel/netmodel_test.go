package netmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStaticTransfer(t *testing.T) {
	l := NewStatic("wifi", Mbps(8), 0.002)
	// 1 MB at 8 Mbps full share = 1 second + RTT.
	got := TransferTime(l, 1_000_000, 0, 1)
	want := 1.0 + 0.002
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("transfer = %g, want %g", got, want)
	}
	// Half share doubles the wire time.
	got = TransferTime(l, 1_000_000, 0, 0.5)
	want = 2.0 + 0.002
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("half-share transfer = %g, want %g", got, want)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	l := NewStatic("wifi", Mbps(10), 0.004)
	if got := TransferTime(l, 0, 5, 1); got != 0.004 {
		t.Errorf("zero-byte transfer = %g, want RTT only", got)
	}
}

func TestTransferZeroShare(t *testing.T) {
	l := NewStatic("wifi", Mbps(10), 0.004)
	if got := TransferTime(l, 100, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("zero-share transfer = %g, want +Inf", got)
	}
}

func TestShareClamp(t *testing.T) {
	l := NewStatic("wifi", Mbps(10), 0)
	if a, b := TransferTime(l, 1000, 0, 1), TransferTime(l, 1000, 0, 7); a != b {
		t.Errorf("share > 1 must clamp: %g vs %g", a, b)
	}
}

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

func TestTraceTransferAcrossBoundary(t *testing.T) {
	// 1 Mbps for 10 s (1.25 MB capacity), then 10 Mbps.
	l, err := NewTrace("trace", []float64{0, 10}, []float64{Mbps(1), Mbps(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 MB = 16 Mbit: 10 Mbit in first 10 s, remaining 6 Mbit at 10 Mbps
	// takes 0.6 s => 10.6 s.
	got := TransferTime(l, 2_000_000, 0, 1)
	if math.Abs(got-10.6) > 1e-9 {
		t.Errorf("transfer = %g, want 10.6", got)
	}
	// Starting at t=10 it is all fast: 16 Mbit / 10 Mbps = 1.6 s.
	got = TransferTime(l, 2_000_000, 10, 1)
	if math.Abs(got-1.6) > 1e-9 {
		t.Errorf("transfer@10 = %g, want 1.6", got)
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

func TestTransferMonotoneInBytes(t *testing.T) {
	l, err := NewFading("wlan", FadingConfig{
		States: []float64{Mbps(1), Mbps(30)}, MeanDwell: 2, Horizon: 500, RTT: 0.005, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(kb uint16, extra uint16, startRaw uint16) bool {
		start := float64(startRaw) / 65535 * 400
		b1 := int64(kb) * 100
		b2 := b1 + int64(extra)*100
		t1 := TransferTime(l, b1, start, 1)
		t2 := TransferTime(l, b2, start, 1)
		return t2 >= t1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestTransferConservation(t *testing.T) {
	// Splitting a payload in two back-to-back transfers (ignoring the RTT
	// of the first) must take at least as long as one transfer, and
	// exactly as long when rates are static.
	l := NewStatic("eth", Mbps(100), 0)
	whole := TransferTime(l, 10_000_000, 0, 1)
	first := TransferTime(l, 4_000_000, 0, 1)
	second := TransferTime(l, 6_000_000, first, 1)
	if math.Abs((first+second)-whole) > 1e-9 {
		t.Errorf("split %g+%g != whole %g", first, second, whole)
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

func TestStaticPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStatic("bad", 0, 0)
}
