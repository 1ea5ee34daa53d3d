package experiments

import (
	"math"
	"math/rand"

	"edgesurgeon/internal/nn"
	"edgesurgeon/internal/surgery"
)

// e12RealMultiExit regenerates Figure 11: exit rates and accuracy measured
// on a genuinely trained multi-exit network, cross-checking the parametric
// exit model the optimizer uses. Nothing here is assumed: the network is
// trained by internal/nn on a synthetic concentric-rings task (whose Bayes
// boundary is nonlinear, so depth genuinely matters) and thresholded
// inference is actually executed.
func e12RealMultiExit(r *Report) error {
	ds, err := nn.Rings(nn.RingsConfig{
		Samples: 8000, Features: 10, Classes: 5, BandWidth: 1.2, Jitter: 0.35, Seed: 101,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(101))
	train, test := ds.Split(0.8, rng)
	net, err := nn.NewMultiExit(nn.Config{
		In: 10, Hidden: []int{10, 20, 40, 80}, Exits: []int{0, 1, 2},
		Classes: 5, Seed: 101,
	})
	if err != nil {
		return err
	}
	for epoch := 0; epoch < 50; epoch++ {
		net.TrainEpoch(train, 32, 0.02, 0.9, rng)
	}

	t := r.table("Threshold sweep on the trained network",
		"threshold", "accuracy", "mean-depth", "exit0", "exit1", "exit2", "final")
	type point struct{ depth, acc float64 }
	var pts []point
	rising := true
	var prevAcc float64
	for _, th := range []float64{0.5, 0.65, 0.8, 0.9, 0.95, 0.99} {
		ev := net.Evaluate(test, th)
		t.AddRow(th, ev.Accuracy, ev.MeanDepth,
			ev.ExitRate[0], ev.ExitRate[1], ev.ExitRate[2], ev.ExitRate[3])
		pts = append(pts, point{ev.MeanDepth, ev.Accuracy})
		if prevAcc > 0 && ev.Accuracy < prevAcc-0.01 {
			rising = false
		}
		prevAcc = ev.Accuracy
	}

	// Per-exit standalone quality: force everything to one depth by
	// thresholding at > 1 (final) and at 0 (first exit).
	first := net.Evaluate(test, 0)
	finalEv := net.Evaluate(test, 1.1)
	r.note("first-exit-only accuracy %.3f at depth %.2f; full-depth accuracy %.3f",
		first.Accuracy, first.MeanDepth, finalEv.Accuracy)

	// Calibrate the optimizer's parametric family to the measured
	// (depth, accuracy) points via the production calibration API and
	// report the residual: the family the planner assumes must be able to
	// represent what a real multi-exit network does.
	finalAcc := finalEv.Accuracy
	measured := make([]surgery.MeasuredPoint, len(pts))
	for i, p := range pts {
		measured[i] = surgery.MeasuredPoint{Depth: p.depth, Accuracy: p.acc}
	}
	fitted, rmse, err := surgery.FitAccuracyCurve(measured, finalAcc)
	if err != nil {
		return err
	}
	t2 := r.table("Measured vs fitted parametric accuracy",
		"mean-depth", "measured-acc", "fitted-parametric-acc")
	var maxErr float64
	for _, p := range pts {
		para := fitted.Accuracy(p.depth)
		t2.AddRow(p.depth, p.acc, para)
		if e := math.Abs(p.acc - para); e > maxErr {
			maxErr = e
		}
	}
	r.note("fitted curve: Floor=%.3f Beta=%.2f Final=%.3f; RMSE %.4f, worst residual %.4f",
		fitted.Floor, fitted.Beta, finalAcc, rmse, maxErr)
	if rising {
		r.note("accuracy rises (weakly) with threshold and depth, matching the model family")
	} else {
		r.note("WARNING: accuracy did not rise with threshold")
	}
	return nil
}
