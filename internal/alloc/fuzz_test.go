package alloc

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzClamp maps an arbitrary fuzzed float into [0, cap], folding NaN and
// ±Inf to 0 so every generated demand lies in the allocator's documented
// domain (finite, non-negative inputs).
func fuzzClamp(v, cap float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v < 0 {
		v = -v
	}
	return math.Mod(v, cap)
}

// FuzzAllocDeadline drives DeadlineAware with arbitrary demand sets and
// checks the allocation invariants that every caller relies on: no panic,
// per-user shares in [0, 1], each resource's shares summing to at most 1,
// finite latency for every user with work, and — when the allocator claims
// feasibility — every deadline actually met. One Scratch lives across every
// input of the run and must return what the wrapper's fresh one does.
func FuzzAllocDeadline(f *testing.F) {
	var reused Scratch
	f.Add(3, 0.01, 0.02, 0.005, 1.0, 0.1, 2.0, int64(1))
	f.Add(1, 0.0, 0.5, 0.5, 2.0, 0.05, 10.0, int64(7))
	f.Add(8, 0.04, 0.004, 0.02, 0.5, 0.3, 4.0, int64(42))
	f.Add(2, 0.2, 0.0, 0.0, 1.0, 0.1, 0.0, int64(99))
	f.Fuzz(func(t *testing.T, n int, fixed, server, tx, weight, deadline, rate float64, salt int64) {
		if n <= 0 || n > 16 {
			n = 1 + int(uint(n)%16)
		}
		rng := rand.New(rand.NewSource(salt))
		demands := make([]Demand, n)
		for i := range demands {
			jitter := func(v, cap float64) float64 { return fuzzClamp(v, cap) * (0.5 + rng.Float64()) }
			demands[i] = Demand{
				Fixed:    jitter(fixed, 2),
				Server:   jitter(server, 1),
				Tx:       jitter(tx, 1),
				Weight:   jitter(weight, 8),
				Deadline: jitter(deadline, 2),
				Rate:     jitter(rate, 30),
			}
		}
		a := DeadlineAware(demands)
		sameAllocation(t, "reused scratch", reused.DeadlineAware(demands), a)
		if len(a.Compute) != n || len(a.Bandwidth) != n {
			t.Fatalf("allocation arity %d/%d for %d demands", len(a.Compute), len(a.Bandwidth), n)
		}
		var sumC, sumB float64
		for i := 0; i < n; i++ {
			c, b := a.Compute[i], a.Bandwidth[i]
			if math.IsNaN(c) || math.IsNaN(b) || c < 0 || b < 0 || c > 1+1e-9 || b > 1+1e-9 {
				t.Fatalf("user %d shares out of range: compute=%g bandwidth=%g (demands %+v)", i, c, b, demands)
			}
			sumC += c
			sumB += b
			d := demands[i]
			if d.Server > 0 && c == 0 {
				t.Fatalf("user %d has server work %g but zero compute share", i, d.Server)
			}
			if d.Tx > 0 && b == 0 {
				t.Fatalf("user %d has tx work %g but zero bandwidth share", i, d.Tx)
			}
			l := d.Latency(c, b)
			if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
				t.Fatalf("user %d degenerate latency %g at shares (%g, %g)", i, l, c, b)
			}
			// The deadline guarantee only covers users allocation can
			// actually influence: a fixed-latency-only user's deadline is
			// "met by device alone or not at all" (see minShares).
			if a.Feasible && d.Deadline > 0 && (d.Server > 0 || d.Tx > 0) && l > d.Deadline*(1+1e-6) {
				t.Fatalf("claimed feasible but user %d latency %g exceeds deadline %g (demands %+v)", i, l, d.Deadline, demands)
			}
		}
		if sumC > 1+1e-6 || sumB > 1+1e-6 {
			t.Fatalf("shares over-allocated: compute=%g bandwidth=%g (demands %+v)", sumC, sumB, demands)
		}
	})
}
