package surgery

import (
	"math"
	"testing"
)

func TestFitAccuracyCurveRecoversKnownCurve(t *testing.T) {
	// Generate points from a known member of the family; the fit must
	// recover it to grid precision.
	truth := ExitCurves{Alpha: 2.5, Beta: 3.2, Floor: 0.7, Final: 0.9}
	var points []MeasuredPoint
	for _, x := range []float64{0.1, 0.25, 0.4, 0.6, 0.8, 0.95} {
		points = append(points, MeasuredPoint{Depth: x, Accuracy: truth.Accuracy(x)})
	}
	fitted, rmse, err := FitAccuracyCurve(points, truth.Final)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1e-3 {
		t.Errorf("rmse %g too large for in-family data", rmse)
	}
	if math.Abs(fitted.Floor-truth.Floor) > 0.01 {
		t.Errorf("floor %g, want %g", fitted.Floor, truth.Floor)
	}
	if math.Abs(fitted.Beta-truth.Beta) > 0.1 {
		t.Errorf("beta %g, want %g", fitted.Beta, truth.Beta)
	}
}

func TestFitAccuracyCurveValidation(t *testing.T) {
	if _, _, err := FitAccuracyCurve(nil, 0.9); err == nil {
		t.Error("accepted empty points")
	}
	if _, _, err := FitAccuracyCurve([]MeasuredPoint{{0.5, 0.8}}, 0); err == nil {
		t.Error("accepted zero final accuracy")
	}
	if _, _, err := FitAccuracyCurve([]MeasuredPoint{{1.5, 0.8}}, 0.9); err == nil {
		t.Error("accepted out-of-range depth")
	}
}
