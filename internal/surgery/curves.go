// Package surgery implements model surgery for latency-sensitive inference:
// attaching early-exit heads to a backbone DNN, choosing which exits to
// keep, choosing the confidence threshold, and choosing the partition point
// that splits the network between an end device and an edge server. The
// per-user surgery optimizer is one half of the paper's joint optimization;
// package alloc is the other half and package joint alternates between them.
//
// Exit behaviour is governed by two calibrated curves (see ExitCurves): the
// confidence power of an exit as a function of backbone depth, and the
// accuracy of a prediction made at that depth. The parametric families
// match the published BranchyNet/SDN measurements qualitatively (confidence
// and accuracy rise concavely with depth); experiment E12 cross-checks the
// family against exit statistics measured on a real multi-exit network
// trained by package nn.
package surgery

import (
	"fmt"
	"math"

	"edgesurgeon/internal/dnn"
)

// ExitCurves parameterizes the exit confidence/accuracy model for one
// backbone.
type ExitCurves struct {
	// Alpha shapes the confidence-power curve tau(x) = (1-theta) * (1 -
	// (1-x)^Alpha): how quickly deeper exits become able to classify
	// harder inputs. Larger = confidence saturates earlier.
	Alpha float64
	// Beta shapes the accuracy curve: acc(x) = Final * (Floor + (1-Floor)
	// * (1 - (1-x)^Beta)).
	Beta float64
	// Floor is the fraction of final accuracy available at depth 0+.
	Floor float64
	// Final is the backbone's full-depth accuracy in [0, 1].
	Final float64
}

// DefaultCurves returns the calibration used throughout the experiments:
// a 76%-top-1-class backbone whose first exits reach ~55% of that accuracy,
// matching the shallow-exit degradation reported in the multi-exit
// literature.
func DefaultCurves() ExitCurves {
	return ExitCurves{Alpha: 2.5, Beta: 1.8, Floor: 0.55, Final: 0.76}
}

// Validate reports whether the curve parameters are usable.
func (c ExitCurves) Validate() error {
	if c.Alpha <= 0 || c.Beta <= 0 {
		return fmt.Errorf("surgery: curve exponents must be positive (alpha=%g beta=%g)", c.Alpha, c.Beta)
	}
	if c.Floor < 0 || c.Floor > 1 {
		return fmt.Errorf("surgery: accuracy floor %g out of [0,1]", c.Floor)
	}
	if c.Final <= 0 || c.Final > 1 {
		return fmt.Errorf("surgery: final accuracy %g out of (0,1]", c.Final)
	}
	return nil
}

// Confidence returns the confidence power tau in [0, 1] of an exit at
// backbone depth fraction x under threshold theta: a task with difficulty
// c <= tau takes the exit. The final exit (x == 1) always fires.
func (c ExitCurves) Confidence(x, theta float64) float64 {
	if x >= 1 {
		return 1
	}
	if x <= 0 {
		return 0
	}
	if theta < 0 {
		theta = 0
	}
	if theta > 1 {
		theta = 1
	}
	return (1 - theta) * (1 - math.Pow(1-x, c.Alpha))
}

// Accuracy returns the expected correctness of a prediction emitted at
// backbone depth fraction x.
func (c ExitCurves) Accuracy(x float64) float64 {
	if x >= 1 {
		return c.Final
	}
	if x < 0 {
		x = 0
	}
	return c.Final * (c.Floor + (1-c.Floor)*(1-math.Pow(1-x, c.Beta)))
}

// depthFrac returns the fraction of backbone FLOPs executed when the model
// is cut after unit `cut`.
func depthFrac(m *dnn.Model, cut int) float64 {
	total := m.TotalFLOPs()
	if total == 0 {
		return 0
	}
	return float64(m.PrefixFLOPs(cut)) / float64(total)
}

// headCost returns the synthesized cost of an early-exit head attached
// after unit `cut`: a global average pool followed by a linear classifier,
// the standard BranchyNet-style exit branch. classes falls back to 1000
// for backbones without a classifier width.
func headCost(m *dnn.Model, cut int) (flops, params int64) {
	classes := m.Classes
	if classes == 0 {
		classes = 1000
	}
	out := m.Units[cut-1].Out()
	pool := out.Elems()                     // global average pool
	fc := 2 * int64(out.C) * int64(classes) // linear head MACs*2
	return pool + fc, int64(out.C)*int64(classes) + int64(classes)
}
