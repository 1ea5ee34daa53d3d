package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgesurgeon/internal/netmodel"
)

// transfer is txStage with nothing to strike it: a nil fault schedule and an
// infinite timeout, the form every fault-free run uses.
func transfer(l netmodel.Link, bytes int64, start, share float64) float64 {
	d, _ := txStage(nil, 0, l, bytes, start, share, math.Inf(1))
	return d
}

func TestStaticTransfer(t *testing.T) {
	l := netmodel.NewStatic("wifi", netmodel.Mbps(8), 0.002)
	// 1 MB at 8 Mbps full share = 1 second + RTT.
	d, cause := txStage(nil, 0, l, 1_000_000, 0, 1, math.Inf(1))
	if want := 1.0 + 0.002; cause != CauseNone || math.Abs(d-want) > 1e-9 {
		t.Errorf("transfer = (%g, %q), want (%g, none)", d, cause, want)
	}
	// Half share doubles the wire time.
	if got, want := transfer(l, 1_000_000, 0, 0.5), 2.0+0.002; math.Abs(got-want) > 1e-9 {
		t.Errorf("half-share transfer = %g, want %g", got, want)
	}
}

func TestTransferZeroBytes(t *testing.T) {
	l := netmodel.NewStatic("wifi", netmodel.Mbps(10), 0.004)
	if got := transfer(l, 0, 5, 1); got != 0.004 {
		t.Errorf("zero-byte transfer = %g, want RTT only", got)
	}
}

func TestTransferZeroShare(t *testing.T) {
	l := netmodel.NewStatic("wifi", netmodel.Mbps(10), 0.004)
	if got := transfer(l, 100, 0, 0); !math.IsInf(got, 1) {
		t.Errorf("zero-share transfer = %g, want +Inf", got)
	}
}

func TestShareClamp(t *testing.T) {
	l := netmodel.NewStatic("wifi", netmodel.Mbps(10), 0)
	if a, b := transfer(l, 1000, 0, 1), transfer(l, 1000, 0, 7); a != b {
		t.Errorf("share > 1 must clamp: %g vs %g", a, b)
	}
}

func TestTraceTransferAcrossBoundary(t *testing.T) {
	// 1 Mbps for 10 s (1.25 MB capacity), then 10 Mbps.
	l, err := netmodel.NewTrace("trace", []float64{0, 10}, []float64{netmodel.Mbps(1), netmodel.Mbps(10)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 MB = 16 Mbit: 10 Mbit in first 10 s, remaining 6 Mbit at 10 Mbps
	// takes 0.6 s => 10.6 s.
	if got := transfer(l, 2_000_000, 0, 1); math.Abs(got-10.6) > 1e-9 {
		t.Errorf("transfer = %g, want 10.6", got)
	}
	// Starting at t=10 it is all fast: 16 Mbit / 10 Mbps = 1.6 s.
	if got := transfer(l, 2_000_000, 10, 1); math.Abs(got-1.6) > 1e-9 {
		t.Errorf("transfer@10 = %g, want 1.6", got)
	}
}

func TestTransferMonotoneInBytes(t *testing.T) {
	l, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
		States: []float64{netmodel.Mbps(1), netmodel.Mbps(30)}, MeanDwell: 2, Horizon: 500, RTT: 0.005, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(kb uint16, extra uint16, startRaw uint16) bool {
		start := float64(startRaw) / 65535 * 400
		b1 := int64(kb) * 100
		b2 := b1 + int64(extra)*100
		return transfer(l, b2, start, 1) >= transfer(l, b1, start, 1)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestTransferConservation(t *testing.T) {
	// Splitting a payload in two back-to-back transfers (ignoring the RTT
	// of the first) must take at least as long as one transfer, and
	// exactly as long when rates are static.
	l := netmodel.NewStatic("eth", netmodel.Mbps(100), 0)
	whole := transfer(l, 10_000_000, 0, 1)
	first := transfer(l, 4_000_000, 0, 1)
	second := transfer(l, 6_000_000, first, 1)
	if math.Abs((first+second)-whole) > 1e-9 {
		t.Errorf("split %g+%g != whole %g", first, second, whole)
	}
}

// numericTransfer integrates a transfer by brute-force fixed-step
// quadrature — the reference the exact segment-walking integrator must
// agree with.
func numericTransfer(l netmodel.Link, bytes int64, start, share float64, dt float64) float64 {
	remaining := float64(bytes) * 8
	t := start
	for remaining > 0 {
		rate := l.RateAt(t) * share
		remaining -= rate * dt
		t += dt
	}
	return t - start + l.RTT()
}

func TestTransferMatchesNumericIntegration(t *testing.T) {
	link, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
		States: []float64{netmodel.Mbps(1), netmodel.Mbps(8), netmodel.Mbps(30)}, MeanDwell: 0.7,
		Horizon: 400, RTT: 0.002, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 25; trial++ {
		bytes := int64(10_000 + rng.Intn(3_000_000))
		start := rng.Float64() * 300
		share := 0.2 + rng.Float64()*0.8
		exact := transfer(link, bytes, start, share)
		approx := numericTransfer(link, bytes, start, share, 1e-5)
		// Rectangle-rule boundary slop: bits over-credited at a fast->slow
		// state change take up to rate-ratio x dt longer to repay, so the
		// tolerance is a small multiple of dt x max-ratio (30x here).
		if math.Abs(exact-approx) > 1e-3*(1+approx) {
			t.Fatalf("trial %d (bytes=%d start=%.3f share=%.2f): exact %.6f vs numeric %.6f",
				trial, bytes, start, share, exact, approx)
		}
	}
}

func TestTransferStartMonotonicityOnStatic(t *testing.T) {
	// On a static link, transfer duration is independent of start time.
	l := netmodel.NewStatic("eth", netmodel.Mbps(10), 0.001)
	base := transfer(l, 500_000, 0, 0.7)
	for _, start := range []float64{1, 17.3, 999} {
		if got := transfer(l, 500_000, start, 0.7); math.Abs(got-base) > 1e-12 {
			t.Fatalf("start %g changed duration: %g vs %g", start, got, base)
		}
	}
}
