package nn_test

import (
	"math/rand"
	"testing"

	"edgesurgeon/internal/nn"
)

// BenchmarkNNMatMul measures the matmul kernel (128x256 * 256x128).
func BenchmarkNNMatMul(b *testing.B) {
	a := nn.NewMatrix(128, 256)
	c := nn.NewMatrix(256, 128)
	for i := range a.Data {
		a.Data[i] = float64(i%17) * 0.1
	}
	for i := range c.Data {
		c.Data[i] = float64(i%13) * 0.1
	}
	dst := nn.NewMatrix(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.MatMul(dst, a, c)
	}
	b.SetBytes(int64(128 * 256 * 128 * 8))
}

// BenchmarkNNTrainEpoch measures one training epoch of the multi-exit MLP
// on 2000 samples of E12's concentric-rings task.
func BenchmarkNNTrainEpoch(b *testing.B) {
	ds, err := nn.Rings(nn.RingsConfig{
		Samples: 2000, Features: 10, Classes: 5, BandWidth: 1.2, Jitter: 0.35, Seed: 101,
	})
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.NewMultiExit(nn.Config{In: 10, Hidden: []int{32, 32, 32}, Exits: []int{0, 1}, Classes: 5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainEpoch(ds, 32, 0.05, 0.9, rng)
	}
}
