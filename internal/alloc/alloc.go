// Package alloc implements the resource-allocation half of the joint
// optimization: splitting one edge server's compute capacity and one
// uplink's bandwidth among the users assigned to it.
//
// Package surgery reduces each user's expected latency to the separable
// form
//
//	L_u(f_u, b_u) = Fixed_u + Server_u/f_u + Tx_u/b_u
//
// so the weighted-sum-latency allocation has the classic square-root
// closed form (shares proportional to sqrt(weight x work)), and deadlines
// and queue-stability constraints become per-user lower share bounds
// handled by water-filling over the unclamped set. DeadlineAware implements
// both, with exact KKT conditions asserted in the tests.
package alloc

import (
	"errors"
	"fmt"
	"math"
)

// Demand is one user's allocation-relevant summary on a single server.
type Demand struct {
	// Fixed is the share-independent latency (device compute + RTT).
	Fixed float64
	// Server is the expected server compute per task at full capacity.
	Server float64
	// Tx is the expected uplink transfer per task at full link capacity.
	Tx float64
	// Weight is the user's priority (defaults to 1 when <= 0).
	Weight float64
	// Deadline is the latency SLO in seconds (0 = none).
	Deadline float64
	// Rate is the arrival rate in tasks/second; used for the
	// queue-stability lower bounds (0 = ignore stability).
	Rate float64
}

func (d Demand) weight() float64 {
	if d.Weight <= 0 {
		return 1
	}
	return d.Weight
}

// Latency evaluates the user's expected latency at the given shares.
func (d Demand) Latency(computeShare, bandwidthShare float64) float64 {
	l := d.Fixed
	if d.Server > 0 {
		if computeShare <= 0 {
			return math.Inf(1)
		}
		l += d.Server / computeShare
	}
	if d.Tx > 0 {
		if bandwidthShare <= 0 {
			return math.Inf(1)
		}
		l += d.Tx / bandwidthShare
	}
	return l
}

// Allocation is a share assignment for the users of one server.
type Allocation struct {
	// Compute[i] and Bandwidth[i] are user i's shares in [0, 1];
	// each vector sums to at most 1.
	Compute   []float64
	Bandwidth []float64
	// Feasible is false when hard constraints (deadlines, stability)
	// could not all be met and the allocation is a best-effort scaling.
	Feasible bool
}

// SumLatency returns the weighted total expected latency under a.
func SumLatency(demands []Demand, a Allocation) float64 {
	var s float64
	for i, d := range demands {
		s += d.weight() * d.Latency(a.Compute[i], a.Bandwidth[i])
	}
	return s
}

// Equal returns the naive 1/n split on both resources (the baseline
// allocation-unaware systems use).
func Equal(n int) Allocation {
	if n <= 0 {
		return Allocation{Feasible: true}
	}
	c := make([]float64, n)
	b := make([]float64, n)
	for i := range c {
		c[i] = 1 / float64(n)
		b[i] = 1 / float64(n)
	}
	return Allocation{Compute: c, Bandwidth: b, Feasible: true}
}

// minShareEps keeps shares strictly positive so latencies stay finite for
// users with vanishing work.
const minShareEps = 1e-9

// Scratch holds the allocator's working vectors, so a caller that allocates
// one server after another (the planner's candidate-move loop) reuses them
// instead of allocating them per call. The zero value is ready; a call grows
// it to the largest n it has seen. The Allocation DeadlineAware returns
// aliases the scratch: it is valid until the next call on the same Scratch,
// so copy the shares out first. Reuse never changes a result — every vector
// is fully rewritten by the call that reads it. Not safe for concurrent use.
type Scratch struct {
	back []float64 // backing array of the five vectors below
	// coef is sqrt(weight x work) of the resource being split; lowC and lowB
	// are the per-user lower bounds on each resource.
	coef, lowC, lowB   []float64
	compute, bandwidth []float64
	clamped            []bool
}

// reset sizes every vector to n. Growth doubles, so a caller whose n creeps
// up by one (a shard gaining users move by move) does not reallocate each
// time.
func (s *Scratch) reset(n int) {
	if cap(s.clamped) < n {
		c := max(n, 2*cap(s.clamped))
		s.back = make([]float64, 5*c)
		s.clamped = make([]bool, c)
	}
	b := s.back
	s.coef, s.lowC, s.lowB = b[:n:n], b[n:2*n:2*n], b[2*n:3*n:3*n]
	s.compute, s.bandwidth = b[3*n:4*n:4*n], b[4*n:5*n:5*n]
	s.clamped = s.clamped[:n]
}

// sqrtSplit distributes budget over users proportionally to coef =
// sqrt(weight*work), respecting per-user lower bounds via iterative
// clamping (exact KKT water-filling; terminates in <= n rounds). Shares go
// to out; clamped is working space.
func sqrtSplit(coef, lower, out []float64, clamped []bool, budget float64) {
	clear(clamped)
	for {
		var coefSum, lockedBudget float64
		for i := range coef {
			if clamped[i] {
				lockedBudget += lower[i]
			} else {
				coefSum += coef[i]
			}
		}
		free := budget - lockedBudget
		if free < 0 {
			free = 0
		}
		changed := false
		for i := range coef {
			if clamped[i] {
				out[i] = lower[i]
				continue
			}
			var s float64
			if coefSum > 0 {
				s = free * coef[i] / coefSum
			}
			if s < lower[i] {
				clamped[i] = true
				changed = true
				out[i] = lower[i]
			} else {
				out[i] = s
			}
		}
		if !changed {
			return
		}
	}
}

// StabilityRho is the maximum queue utilization the deadline-aware
// allocator provisions for: shares are bounded below so that each user's
// server and link utilization stays at or below this value.
const StabilityRho = 0.9

// ErrInfeasible reports that the hard constraints cannot all be satisfied
// within unit capacity.
var ErrInfeasible = errors.New("alloc: constraints exceed capacity")

// minShares computes the per-user lower bounds (fmin, bmin) implied by the
// deadline and the stability constraint. The deadline slack is split
// between compute and transfer in the ratio sqrt(Server):sqrt(Tx), which
// minimizes fmin+bmin.
func minShares(d Demand) (fmin, bmin float64, err error) {
	fmin, bmin = minShareEps, minShareEps
	if d.Rate > 0 {
		if v := d.Rate * d.Server / StabilityRho; v > fmin {
			fmin = v
		}
		if v := d.Rate * d.Tx / StabilityRho; v > bmin {
			bmin = v
		}
	}
	if d.Deadline > 0 {
		slack := d.Deadline - d.Fixed
		if slack <= 0 {
			if d.Server > 0 || d.Tx > 0 {
				return 0, 0, fmt.Errorf("%w: fixed latency %.4gs exceeds deadline %.4gs", ErrInfeasible, d.Fixed, d.Deadline)
			}
			return fmin, bmin, nil // deadline met by device alone or not at all
		}
		sv, sw := math.Sqrt(d.Server), math.Sqrt(d.Tx)
		if sv+sw > 0 {
			sf := slack * sv / (sv + sw)
			sb := slack - sf
			if d.Server > 0 {
				if v := d.Server / sf; v > fmin {
					fmin = v
				}
			}
			if d.Tx > 0 {
				if v := d.Tx / sb; v > bmin {
					bmin = v
				}
			}
		}
	}
	return fmin, bmin, nil
}

// DeadlineAware returns the weighted-sum-latency-optimal allocation subject
// to per-user deadline and stability lower bounds. When the bounds are
// jointly infeasible it returns a proportional scaling of the bounds with
// Feasible == false so callers can trigger reassignment.
func DeadlineAware(demands []Demand) Allocation { return new(Scratch).DeadlineAware(demands) }

// DeadlineAware is the package-level DeadlineAware on s's vectors.
func (s *Scratch) DeadlineAware(demands []Demand) Allocation {
	n := len(demands)
	s.reset(n)
	if n == 1 {
		// Fast path mirroring the general machinery for a single user: the
		// user takes the whole of each resource it uses; a zero-work
		// resource collapses to its lower bound; bounds above unit
		// capacity are scaled to 1 and flagged infeasible — exactly what
		// minShares + scaling + sqrtSplit compute for n == 1.
		d := demands[0]
		f, b, err := minShares(d)
		feasible := err == nil
		if err != nil {
			dd := d
			dd.Deadline = 0
			f, b, _ = minShares(dd)
		}
		if f > 1 {
			f, feasible = 1, false
		}
		if b > 1 {
			b, feasible = 1, false
		}
		s.compute[0], s.bandwidth[0] = f, b
		if d.Server > 0 {
			s.compute[0] = 1
		}
		if d.Tx > 0 {
			s.bandwidth[0] = 1
		}
		return Allocation{Compute: s.compute, Bandwidth: s.bandwidth, Feasible: feasible}
	}
	fmin, bmin := s.lowC, s.lowB
	feasible := true
	var sumF, sumB float64
	for i, d := range demands {
		f, b, err := minShares(d)
		if err != nil {
			// The deadline is individually unmeetable (fixed latency
			// already exceeds it). Keep the stability bounds — dropping
			// them would let the water-filling starve this user to a
			// vanishing share and an unbounded queue.
			feasible = false
			dd := d
			dd.Deadline = 0
			f, b, _ = minShares(dd)
		}
		fmin[i], bmin[i] = f, b
		sumF += f
		sumB += b
	}
	if sumF > 1 {
		feasible = false
		for i := range fmin {
			fmin[i] /= sumF
		}
	}
	if sumB > 1 {
		feasible = false
		for i := range bmin {
			bmin[i] /= sumB
		}
	}
	// Split each resource by the square-root rule above the lower bounds.
	for i := range demands {
		s.coef[i] = math.Sqrt(demands[i].weight() * demands[i].Server)
	}
	sqrtSplit(s.coef, fmin, s.compute, s.clamped, 1)
	for i := range demands {
		s.coef[i] = math.Sqrt(demands[i].weight() * demands[i].Tx)
	}
	sqrtSplit(s.coef, bmin, s.bandwidth, s.clamped, 1)
	return Allocation{Compute: s.compute, Bandwidth: s.bandwidth, Feasible: feasible}
}
