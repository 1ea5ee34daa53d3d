package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a labeled feature matrix.
type Dataset struct {
	X        *Matrix
	Y        []int
	Features int
	Classes  int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Split partitions the dataset into train/test at the given fraction.
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	n := d.Len()
	order := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	build := func(idx []int) *Dataset {
		out := &Dataset{
			X:        NewMatrix(len(idx), d.Features),
			Y:        make([]int, len(idx)),
			Features: d.Features,
			Classes:  d.Classes,
		}
		for i, j := range idx {
			copy(out.X.Row(i), d.X.Row(j))
			out.Y[i] = d.Y[j]
		}
		return out
	}
	return build(order[:nTrain]), build(order[nTrain:])
}

// RingsConfig parameterizes a concentric-annulus classification task.
// Class boundaries are circles in a 2-D subspace (the remaining features
// are pure noise), so the Bayes decision rule is genuinely nonlinear:
// shallow exits cannot match deep accuracy, unlike Gaussian mixtures whose
// optimal boundary is linear. This is the dataset that makes measured
// exit-accuracy curves rise with depth.
type RingsConfig struct {
	Samples int
	// Features >= 2; features beyond the first two are noise.
	Features int
	Classes  int
	// BandWidth is each class annulus' radial thickness.
	BandWidth float64
	// Jitter is the radial noise std as a fraction of BandWidth.
	Jitter float64
	Seed   int64
}

// Rings generates the concentric-annulus dataset.
func Rings(cfg RingsConfig) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Features < 2 || cfg.Classes < 2 {
		return nil, fmt.Errorf("nn: bad rings config %+v", cfg)
	}
	if cfg.BandWidth <= 0 || cfg.Jitter < 0 {
		return nil, fmt.Errorf("nn: bad rings geometry %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{
		X:        NewMatrix(cfg.Samples, cfg.Features),
		Y:        make([]int, cfg.Samples),
		Features: cfg.Features,
		Classes:  cfg.Classes,
	}
	for i := 0; i < cfg.Samples; i++ {
		c := rng.Intn(cfg.Classes)
		// Radius inside class c's band, plus jitter toward neighbours.
		u := rng.Float64()
		base := (float64(c) + 0.5) * cfg.BandWidth
		jit := rng.NormFloat64() * cfg.Jitter * cfg.BandWidth * u
		radius := base + (u-0.5)*cfg.BandWidth*0.8 + jit
		if radius < 0 {
			radius = -radius
		}
		angle := rng.Float64() * 2 * math.Pi
		row := ds.X.Row(i)
		row[0] = radius * math.Cos(angle)
		row[1] = radius * math.Sin(angle)
		for j := 2; j < cfg.Features; j++ {
			row[j] = rng.NormFloat64() * 0.5
		}
		ds.Y[i] = c
	}
	return ds, nil
}
