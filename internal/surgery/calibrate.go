package surgery

import (
	"fmt"
	"math"
)

// MeasuredPoint is one (mean-depth, accuracy) observation from a real
// multi-exit network evaluated at some confidence threshold (see
// nn.MultiExit.Evaluate), used to calibrate the parametric exit curves the
// optimizer plans with.
type MeasuredPoint struct {
	// Depth is the mean executed backbone fraction in [0, 1].
	Depth float64
	// Accuracy is the measured end-to-end accuracy at that depth.
	Accuracy float64
}

// FitAccuracyCurve fits the parametric accuracy family
//
//	acc(x) = Final * (Floor + (1-Floor) * (1 - (1-x)^Beta))
//
// to measured points by grid search over (Floor, Beta), holding Final
// fixed (pass the network's measured full-depth accuracy). It returns the
// fitted curves (Alpha keeps the default confidence shape) and the RMSE of
// the fit. This is how a deployment turns profiling runs of its real
// models into planner inputs.
func FitAccuracyCurve(points []MeasuredPoint, final float64) (ExitCurves, float64, error) {
	if len(points) == 0 {
		return ExitCurves{}, 0, fmt.Errorf("surgery: no calibration points")
	}
	if final <= 0 || final > 1 {
		return ExitCurves{}, 0, fmt.Errorf("surgery: final accuracy %g out of (0,1]", final)
	}
	for i, p := range points {
		if p.Depth < 0 || p.Depth > 1 || p.Accuracy < 0 || p.Accuracy > 1 {
			return ExitCurves{}, 0, fmt.Errorf("surgery: calibration point %d out of range: %+v", i, p)
		}
	}
	def := DefaultCurves()
	bestFloor, bestBeta, bestSSE := 0.0, 0.0, math.Inf(1)
	for floor := 0.30; floor <= 0.999; floor += 0.002 {
		for beta := 0.2; beta <= 8; beta += 0.04 {
			c := ExitCurves{Alpha: def.Alpha, Beta: beta, Floor: floor, Final: final}
			var sse float64
			for _, p := range points {
				d := c.Accuracy(p.Depth) - p.Accuracy
				sse += d * d
			}
			if sse < bestSSE {
				bestSSE, bestFloor, bestBeta = sse, floor, beta
			}
		}
	}
	fitted := ExitCurves{Alpha: def.Alpha, Beta: bestBeta, Floor: bestFloor, Final: final}
	rmse := math.Sqrt(bestSSE / float64(len(points)))
	return fitted, rmse, nil
}
