package nn

import (
	"math/rand"
	"testing"
)

func TestMultiExitConvFrontValidation(t *testing.T) {
	_, err := NewMultiExit(Config{
		In: 100, Conv: []ConvStage{{OutC: 4}}, InC: 1, InH: 8, InW: 8,
		Hidden: []int{16}, Classes: 2, Seed: 1,
	})
	if err == nil {
		t.Error("accepted mismatched conv geometry (8x8 != 100)")
	}
	_, err = NewMultiExit(Config{
		In: 64, Conv: []ConvStage{{OutC: 0}}, InC: 1, InH: 8, InW: 8,
		Hidden: []int{16}, Classes: 2, Seed: 1,
	})
	if err == nil {
		t.Error("accepted zero-width conv stage")
	}
}

// StripeImages generates a synthetic vision task: class 0 images contain
// horizontal stripes, class 1 vertical stripes, with additive noise. A
// convolutional net separates them trivially; a linear model cannot when
// phases are random.
func StripeImages(samples, h, w int, noise float64, seed int64) (*Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := NewMatrix(samples, h*w)
	y := make([]int, samples)
	for i := 0; i < samples; i++ {
		cls := rng.Intn(2)
		phase := rng.Intn(2)
		row := x.Row(i)
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				var v float64
				if cls == 0 { // horizontal stripes
					v = float64((yy + phase) % 2)
				} else { // vertical stripes
					v = float64((xx + phase) % 2)
				}
				row[yy*w+xx] = v + rng.NormFloat64()*noise
			}
		}
		y[i] = cls
	}
	return x, y
}

// stripeDataset adapts StripeImages to the Dataset type, assigning
// difficulty from the noise draw (unknown here, so uniform placeholder).
func stripeDataset(samples, h, w int, noise float64, seed int64) *Dataset {
	x, y := StripeImages(samples, h, w, noise, seed)
	return &Dataset{X: x, Y: y, Features: h * w, Classes: 2}
}

// TestMultiExitCNNLearnsStripes trains a conv-fronted multi-exit network
// end to end: the joint loss must train both the conv features and the
// exit heads, and early exits must fire on this easy task.
func TestMultiExitCNNLearnsStripes(t *testing.T) {
	train := stripeDataset(800, 12, 12, 0.3, 61)
	test := stripeDataset(300, 12, 12, 0.3, 62)
	net, err := NewMultiExit(Config{
		In: 144, Conv: []ConvStage{{OutC: 4}, {OutC: 8}}, InC: 1, InH: 12, InW: 12,
		Hidden: []int{24, 24}, Exits: []int{0}, Classes: 2, Seed: 63,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	for epoch := 0; epoch < 8; epoch++ {
		net.TrainEpoch(train, 32, 0.05, 0.9, rng)
	}
	final := net.Evaluate(test, 1.1)
	if final.Accuracy < 0.95 {
		t.Errorf("final accuracy %.3f, want >= 0.95", final.Accuracy)
	}
	early := net.Evaluate(test, 0.8)
	if early.ExitRate[0] < 0.3 {
		t.Errorf("early exit fired on only %.1f%% of an easy task", early.ExitRate[0]*100)
	}
	if early.Accuracy < 0.9 {
		t.Errorf("thresholded accuracy %.3f", early.Accuracy)
	}
	if early.MeanDepth >= final.MeanDepth {
		t.Errorf("early exits did not reduce depth: %.3f vs %.3f", early.MeanDepth, final.MeanDepth)
	}
}

func TestMultiExitConvDeterministic(t *testing.T) {
	build := func() *MultiExit {
		net, err := NewMultiExit(Config{
			In: 64, Conv: []ConvStage{{OutC: 3}}, InC: 1, InH: 8, InW: 8,
			Hidden: []int{12}, Classes: 2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	ds := stripeDataset(100, 8, 8, 0.2, 6)
	a, b := build(), build()
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	la := a.TrainEpoch(ds, 16, 0.05, 0.9, rngA)
	lb := b.TrainEpoch(ds, 16, 0.05, 0.9, rngB)
	if la != lb {
		t.Fatalf("training not deterministic: %.9g vs %.9g", la, lb)
	}
}
