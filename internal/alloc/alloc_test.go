package alloc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestEqualSplit(t *testing.T) {
	a := Equal(4)
	if !almostEq(sum(a.Compute), 1, 1e-12) || !almostEq(sum(a.Bandwidth), 1, 1e-12) {
		t.Fatalf("shares do not sum to 1: %v %v", a.Compute, a.Bandwidth)
	}
	for i := range a.Compute {
		if a.Compute[i] != 0.25 || a.Bandwidth[i] != 0.25 {
			t.Fatalf("unequal shares: %v", a)
		}
	}
	empty := Equal(0)
	if len(empty.Compute) != 0 {
		t.Error("Equal(0) not empty")
	}
}

// The min-sum tests below run DeadlineAware on demands with no deadline and
// no rate: every lower bound is then the epsilon share, so the allocation is
// the unconstrained weighted-sum-latency optimum.

func TestMinSumLatencySqrtRule(t *testing.T) {
	// With works 1 and 4, optimal shares are 1:2.
	ds := []Demand{{Server: 1, Tx: 1}, {Server: 4, Tx: 4}}
	a := DeadlineAware(ds)
	if !almostEq(a.Compute[1]/a.Compute[0], 2, 1e-6) {
		t.Errorf("compute ratio = %g, want 2", a.Compute[1]/a.Compute[0])
	}
	if !almostEq(sum(a.Compute), 1, 1e-9) {
		t.Errorf("compute shares sum %g", sum(a.Compute))
	}
}

func TestMinSumLatencyKKT(t *testing.T) {
	// At the optimum the marginal gains w*V/f^2 are equal across users
	// with positive work.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		ds := make([]Demand, n)
		for i := range ds {
			ds[i] = Demand{
				Server: rng.Float64()*0.5 + 0.01,
				Tx:     rng.Float64()*0.2 + 0.01,
				Weight: rng.Float64()*2 + 0.5,
			}
		}
		a := DeadlineAware(ds)
		var first float64
		for i, d := range ds {
			marginal := d.weight() * d.Server / (a.Compute[i] * a.Compute[i])
			if i == 0 {
				first = marginal
			} else if !almostEq(marginal/first, 1, 1e-6) {
				t.Fatalf("trial %d: KKT violated: marginals %g vs %g", trial, marginal, first)
			}
		}
	}
}

func TestMinSumLatencyBeatsEqual(t *testing.T) {
	ds := []Demand{
		{Server: 0.9, Tx: 0.01},
		{Server: 0.05, Tx: 0.01},
		{Server: 0.05, Tx: 0.5},
	}
	opt := DeadlineAware(ds)
	eq := Equal(len(ds))
	if SumLatency(ds, opt) >= SumLatency(ds, eq) {
		t.Errorf("optimal %.4g not better than equal %.4g", SumLatency(ds, opt), SumLatency(ds, eq))
	}
}

func TestMinSumLatencyOptimalAgainstRandomPerturbations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := []Demand{
		{Server: 0.3, Tx: 0.1, Weight: 1},
		{Server: 0.1, Tx: 0.3, Weight: 2},
		{Server: 0.6, Tx: 0.05, Weight: 0.5},
	}
	a := DeadlineAware(ds)
	base := SumLatency(ds, a)
	for i := 0; i < 500; i++ {
		// Random feasible perturbation.
		c := append([]float64(nil), a.Compute...)
		b := append([]float64(nil), a.Bandwidth...)
		i1, i2 := rng.Intn(3), rng.Intn(3)
		eps := (rng.Float64() - 0.5) * 0.1
		if i1 == i2 {
			continue
		}
		c[i1] += eps
		c[i2] -= eps
		b[i2] += eps / 2
		b[i1] -= eps / 2
		ok := true
		for j := range c {
			if c[j] <= 0 || b[j] <= 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		perturbed := SumLatency(ds, Allocation{Compute: c, Bandwidth: b})
		if perturbed < base-1e-9 {
			t.Fatalf("found better allocation (%.6g < %.6g) at trial %d", perturbed, base, i)
		}
	}
}

func TestDeadlineAwareMeetsDeadlines(t *testing.T) {
	ds := []Demand{
		{Fixed: 0.01, Server: 0.05, Tx: 0.02, Deadline: 0.3},
		{Fixed: 0.02, Server: 0.10, Tx: 0.05, Deadline: 0.5},
		{Fixed: 0.00, Server: 0.02, Tx: 0.01}, // best effort
	}
	a := DeadlineAware(ds)
	if !a.Feasible {
		t.Fatal("expected feasible")
	}
	for i, d := range ds {
		if d.Deadline > 0 {
			l := d.Latency(a.Compute[i], a.Bandwidth[i])
			if l > d.Deadline+1e-9 {
				t.Errorf("user %d: latency %.4g exceeds deadline %.4g", i, l, d.Deadline)
			}
		}
	}
	if sum(a.Compute) > 1+1e-9 || sum(a.Bandwidth) > 1+1e-9 {
		t.Errorf("over-allocated: %g %g", sum(a.Compute), sum(a.Bandwidth))
	}
}

func TestDeadlineAwareInfeasible(t *testing.T) {
	// Two users each needing > 60% of the server.
	ds := []Demand{
		{Server: 0.13, Deadline: 0.2},
		{Server: 0.13, Deadline: 0.2},
	}
	a := DeadlineAware(ds)
	if a.Feasible {
		t.Error("expected infeasible")
	}
	if sum(a.Compute) > 1+1e-9 {
		t.Errorf("infeasible fallback still over-allocates: %g", sum(a.Compute))
	}
}

func TestDeadlineAwareFixedExceedsDeadline(t *testing.T) {
	ds := []Demand{{Fixed: 0.5, Server: 0.1, Deadline: 0.2}}
	a := DeadlineAware(ds)
	if a.Feasible {
		t.Error("deadline below fixed latency must be infeasible")
	}
}

func TestStabilityLowerBound(t *testing.T) {
	// One user at high arrival rate: share must keep utilization <= rho.
	ds := []Demand{
		{Server: 0.010, Rate: 50}, // needs f >= 50*0.01/0.9 = 0.556
		{Server: 0.001, Rate: 1},
	}
	a := DeadlineAware(ds)
	if !a.Feasible {
		t.Fatal("expected feasible")
	}
	rho := ds[0].Rate * ds[0].Server / a.Compute[0]
	if rho > StabilityRho+1e-9 {
		t.Errorf("utilization %.3f exceeds rho %.2f", rho, StabilityRho)
	}
}

func TestLatencyInfiniteOnZeroShare(t *testing.T) {
	d := Demand{Server: 0.1}
	if !math.IsInf(d.Latency(0, 1), 1) {
		t.Error("zero compute share with server work must be +Inf")
	}
	d2 := Demand{Tx: 0.1}
	if !math.IsInf(d2.Latency(1, 0), 1) {
		t.Error("zero bandwidth share with tx work must be +Inf")
	}
	d3 := Demand{Fixed: 0.5}
	if d3.Latency(0, 0) != 0.5 {
		t.Error("pure-fixed demand must ignore shares")
	}
}

func TestAllocationsAlwaysFeasibleProperty(t *testing.T) {
	f := func(raw []struct {
		V, W, Wt uint8
		DL       uint8
	}) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		ds := make([]Demand, len(raw))
		for i, r := range raw {
			ds[i] = Demand{
				Server:   float64(r.V) / 255 * 0.1,
				Tx:       float64(r.W) / 255 * 0.1,
				Weight:   float64(r.Wt)/255*2 + 0.1,
				Deadline: float64(r.DL)/255*2 + 0.5,
			}
		}
		a := DeadlineAware(ds)
		if sum(a.Compute) > 1+1e-6 || sum(a.Bandwidth) > 1+1e-6 {
			return false
		}
		for i := range a.Compute {
			if a.Compute[i] < 0 || a.Bandwidth[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// generalSqrtSplitSingle reproduces the pre-fast-path water-filling for one
// demand, so the single-user fast paths can be checked against the exact
// shares the general machinery computes.
func generalSqrtSplitSingle(work, weight, lower float64) float64 {
	out := make([]float64, 1)
	sqrtSplit([]float64{math.Sqrt(weight * work)}, []float64{lower}, out, make([]bool, 1), 1)
	return out[0]
}

// TestSingleDemandFastPathsMatchGeneral verifies the n == 1 fast path in
// DeadlineAware emits exactly the shares the general water-filling would,
// across the structural cases (both resources used, zero-work resources,
// binding stability bounds, unmeetable deadlines).
func TestSingleDemandFastPathsMatchGeneral(t *testing.T) {
	cases := []struct {
		name string
		d    Demand
	}{
		{"both-resources", Demand{Fixed: 0.01, Server: 0.02, Tx: 0.005, Deadline: 0.2, Rate: 2}},
		{"no-server-work", Demand{Fixed: 0.01, Server: 0, Tx: 0.005, Deadline: 0.2, Rate: 2}},
		{"no-tx-work", Demand{Fixed: 0.01, Server: 0.02, Tx: 0, Deadline: 0.2, Rate: 2}},
		{"no-work-at-all", Demand{Fixed: 0.01}},
		{"stability-bound", Demand{Fixed: 0.001, Server: 0.05, Tx: 0.01, Rate: 10}},
		{"deadline-unmeetable", Demand{Fixed: 0.5, Server: 0.02, Tx: 0.01, Deadline: 0.1, Rate: 1}},
		{"bounds-exceed-capacity", Demand{Fixed: 0.001, Server: 0.2, Tx: 0.01, Deadline: 0.21, Rate: 5}},
		{"weighted", Demand{Fixed: 0.01, Server: 0.02, Tx: 0.005, Weight: 3, Deadline: 0.3, Rate: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The general path derives lower bounds from minShares, scales
			// them into capacity, then water-fills.
			got := DeadlineAware([]Demand{c.d})
			f, b, err := minShares(c.d)
			wantFeasible := err == nil
			if err != nil {
				dd := c.d
				dd.Deadline = 0
				f, b, _ = minShares(dd)
			}
			if f > 1 {
				f, wantFeasible = 1, false
			}
			if b > 1 {
				b, wantFeasible = 1, false
			}
			wantF := generalSqrtSplitSingle(c.d.Server, c.d.weight(), f)
			wantB := generalSqrtSplitSingle(c.d.Tx, c.d.weight(), b)
			if got.Compute[0] != wantF || got.Bandwidth[0] != wantB {
				t.Errorf("DeadlineAware fast path (%g, %g) != general (%g, %g)",
					got.Compute[0], got.Bandwidth[0], wantF, wantB)
			}
			if got.Feasible != wantFeasible {
				t.Errorf("DeadlineAware feasible = %v, want %v", got.Feasible, wantFeasible)
			}
		})
	}
}

// sameAllocation fails unless got equals want bit for bit: same arity, same
// math.Float64bits per share, same Feasible.
func sameAllocation(t *testing.T, label string, got, want Allocation) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: Feasible = %v, want %v", label, got.Feasible, want.Feasible)
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"Compute", got.Compute, want.Compute}, {"Bandwidth", got.Bandwidth, want.Bandwidth}} {
		if len(v.got) != len(v.want) {
			t.Fatalf("%s: %d %s shares, want %d", label, len(v.got), v.name, len(v.want))
		}
		for i := range v.got {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				t.Fatalf("%s: %s[%d] = %x, want %x", label, v.name, i, v.got[i], v.want[i])
			}
		}
	}
}

// TestScratchReuseInvisible drives one Scratch through a seeded sequence of
// calls whose n shrinks and grows and whose demand sets hit every structural
// case (empty, single user, a fixed latency past its deadline,
// over-subscribed minima, zero-work resources), and requires every result to
// equal a fresh call's bit for bit: what an earlier call left in the vectors
// never reaches a later result.
func TestScratchReuseInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{7, 0, 1, 40, 3, 1, 0, 120, 2, 64, 5}
	var s Scratch
	for step := 0; step < 400; step++ {
		n := sizes[step%len(sizes)]
		if step >= 2*len(sizes) {
			n = rng.Intn(48)
		}
		shape := step % 5
		ds := make([]Demand, n)
		for i := range ds {
			d := Demand{
				Fixed:    0.2 * rng.Float64(),
				Server:   0.04 * rng.Float64(),
				Tx:       0.04 * rng.Float64(),
				Weight:   3*rng.Float64() - 0.5,
				Deadline: 0.1 + 0.6*rng.Float64(),
				Rate:     4 * rng.Float64(),
			}
			switch shape {
			case 1: // fixed latency alone misses the deadline
				if i%2 == 0 {
					d.Deadline = d.Fixed * rng.Float64()
				}
			case 2: // minima sum past unit capacity
				d.Rate *= 40
			case 3: // resources nobody uses
				if rng.Intn(2) == 0 {
					d.Tx = 0
				}
				if rng.Intn(2) == 0 {
					d.Server = 0
				}
			case 4: // unconstrained
				d.Deadline, d.Rate = 0, 0
			}
			ds[i] = d
		}
		sameAllocation(t, "DeadlineAware", s.DeadlineAware(ds), DeadlineAware(ds))
	}
}
