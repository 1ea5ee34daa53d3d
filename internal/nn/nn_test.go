package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMatMulCorrectness(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(nil, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// Big enough to trip the parallel path.
	a := NewMatrix(80, 90)
	b := NewMatrix(90, 80)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	big := MatMul(nil, a, b)
	// Reference via transposed identity: compute row by row with ABT.
	bt := NewMatrix(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	ref := MatMulABT(nil, a, bt)
	for i := range big.Data {
		if math.Abs(big.Data[i]-ref.Data[i]) > 1e-9 {
			t.Fatalf("parallel matmul mismatch at %d: %g vs %g", i, big.Data[i], ref.Data[i])
		}
	}
}

func TestMatMulATB(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{5, 6, 7, 8})
	c := MatMulATB(nil, a, b)
	// aT*b = [[1,3],[2,4]]*[[5,6],[7,8]] = [[26,30],[38,44]]
	want := []float64{26, 30, 38, 44}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(nil, NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestSoftmaxRows(t *testing.T) {
	m := NewMatrix(1, 3)
	copy(m.Data, []float64{1, 2, 3})
	softmaxRows(m)
	var sum float64
	for _, v := range m.Data {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax out of range: %v", m.Data)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %g", sum)
	}
	if !(m.Data[2] > m.Data[1] && m.Data[1] > m.Data[0]) {
		t.Fatalf("softmax not monotone: %v", m.Data)
	}
}

func TestRingsShape(t *testing.T) {
	ds, err := Rings(RingsConfig{
		Samples: 500, Features: 8, Classes: 4, BandWidth: 1.2, Jitter: 0.35, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 || ds.Features != 8 || ds.Classes != 4 {
		t.Fatalf("dataset shape: %d x %d, %d classes", ds.Len(), ds.Features, ds.Classes)
	}
	seen := map[int]int{}
	for _, y := range ds.Y {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
		seen[y]++
	}
	if len(seen) != 4 {
		t.Fatalf("missing classes: %v", seen)
	}
}

func TestRingsValidation(t *testing.T) {
	if _, err := Rings(RingsConfig{Samples: 0, Features: 2, Classes: 2, BandWidth: 1}); err == nil {
		t.Error("accepted zero samples")
	}
	if _, err := Rings(RingsConfig{Samples: 10, Features: 2, Classes: 2, BandWidth: 0}); err == nil {
		t.Error("accepted zero band width")
	}
	if _, err := Rings(RingsConfig{Samples: 10, Features: 2, Classes: 2, BandWidth: 1, Jitter: -1}); err == nil {
		t.Error("accepted negative jitter")
	}
}

func TestNewMultiExitValidation(t *testing.T) {
	if _, err := NewMultiExit(Config{In: 0, Hidden: []int{4}, Classes: 2}); err == nil {
		t.Error("accepted zero input width")
	}
	if _, err := NewMultiExit(Config{In: 4, Hidden: []int{4}, Exits: []int{5}, Classes: 2}); err == nil {
		t.Error("accepted out-of-range exit")
	}
	m, err := NewMultiExit(Config{In: 4, Hidden: []int{8, 8, 8}, Exits: []int{0}, Classes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exits := m.exits
	if len(exits) != 2 || exits[0] != 0 || exits[1] != 2 {
		t.Fatalf("exits = %v, want [0 2]", exits)
	}
}

// trainToy trains a small multi-exit net on the concentric-rings task.
func trainToy(t *testing.T, seed int64) (*MultiExit, *Dataset, *Dataset) {
	t.Helper()
	ds, err := Rings(RingsConfig{
		Samples: 3000, Features: 12, Classes: 4, BandWidth: 1.2, Jitter: 0.35, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	train, test := ds.Split(0.8, rng)
	m, err := NewMultiExit(Config{
		In: 12, Hidden: []int{32, 32, 32, 32}, Exits: []int{0, 1, 2}, Classes: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 12; epoch++ {
		m.TrainEpoch(train, 32, 0.05, 0.9, rng)
	}
	return m, train, test
}

func TestTrainingLearns(t *testing.T) {
	m, _, test := trainToy(t, 42)
	res := m.Evaluate(test, 1.1) // threshold > 1: only the final head fires
	if res.Accuracy < 0.80 {
		t.Errorf("final-exit accuracy %.3f too low", res.Accuracy)
	}
	if res.MeanDepth != 1 {
		t.Errorf("mean depth %.3f, want 1 when no early exits fire", res.MeanDepth)
	}
}

func TestLossDecreasesOverEpochs(t *testing.T) {
	ds, err := Rings(RingsConfig{
		Samples: 1500, Features: 10, Classes: 3, BandWidth: 1.2, Jitter: 0.35, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	m, err := NewMultiExit(Config{In: 10, Hidden: []int{24, 24}, Exits: []int{0}, Classes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	first := m.TrainEpoch(ds, 32, 0.05, 0.9, rng)
	var last float64
	for i := 0; i < 8; i++ {
		last = m.TrainEpoch(ds, 32, 0.05, 0.9, rng)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestThresholdControlsExitDepth(t *testing.T) {
	m, _, test := trainToy(t, 43)
	loose := m.Evaluate(test, 0.5)
	strict := m.Evaluate(test, 0.95)
	if loose.MeanDepth >= strict.MeanDepth {
		t.Errorf("loose threshold should exit earlier: depth %.3f vs %.3f",
			loose.MeanDepth, strict.MeanDepth)
	}
	if loose.ExitRate[0] <= strict.ExitRate[0] {
		t.Errorf("first-exit rate should drop with threshold: %.3f vs %.3f",
			loose.ExitRate[0], strict.ExitRate[0])
	}
	// Rates sum to 1 at every threshold.
	for _, r := range [][]float64{loose.ExitRate, strict.ExitRate} {
		var s float64
		for _, v := range r {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("exit rates sum to %g", s)
		}
	}
}

func TestStrictThresholdImprovesAccuracy(t *testing.T) {
	m, _, test := trainToy(t, 44)
	loose := m.Evaluate(test, 0.4)
	strict := m.Evaluate(test, 0.97)
	if strict.Accuracy+0.02 < loose.Accuracy {
		t.Errorf("stricter threshold lost accuracy: %.3f vs %.3f", strict.Accuracy, loose.Accuracy)
	}
}

// TestEasySamplesExitEarly: samples far from a class boundary exit earlier
// on average than samples near one. A rings sample's boundary margin is its
// radial distance to the nearest multiple of the band width (trainToy's
// 1.2). (Comparing against out-of-distribution noise would hit softmax
// overconfidence instead — a known pathology, not early-exit behaviour.)
func TestEasySamplesExitEarly(t *testing.T) {
	m, _, test := trainToy(t, 45)
	preds := m.Infer(test.X, 0.9)
	margins := make([]float64, test.Len())
	for i := range margins {
		row := test.X.Row(i)
		r := math.Hypot(row[0], row[1]) / 1.2
		margins[i] = math.Abs(r - math.Round(r))
	}
	median := append([]float64(nil), margins...)
	sort.Float64s(median)
	cut := median[len(median)/2]
	nLayers := 4.0
	var easyDepth, hardDepth float64
	var easyN, hardN int
	for i, p := range preds {
		depth := float64(p.Exit+1) / nLayers
		if margins[i] > cut {
			easyDepth += depth
			easyN++
		} else {
			hardDepth += depth
			hardN++
		}
	}
	easyDepth /= float64(easyN)
	hardDepth /= float64(hardN)
	if easyDepth >= hardDepth {
		t.Errorf("easy inputs did not exit earlier: %.3f vs %.3f", easyDepth, hardDepth)
	}
}

func TestInferDeterministic(t *testing.T) {
	m, _, test := trainToy(t, 46)
	a := m.Infer(test.X, 0.8)
	b := m.Infer(test.X, 0.8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("inference not deterministic at %d", i)
		}
	}
}

// TestGradientCheck compares trainBatch's analytic gradients for every
// backbone and head layer with central differences of the loss.
func TestGradientCheck(t *testing.T) {
	net, err := NewMultiExit(Config{In: 6, Hidden: []int{6, 5}, Exits: []int{0}, Classes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	x := NewMatrix(4, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := []int{0, 1, 1, 0}
	// A step at lr = 0 (momentum 0) moves nothing: it is the loss function,
	// and leaves the analytic gradients — sums over the batch of a loss it
	// reports as a mean — behind.
	loss := func() float64 { return net.trainBatch(x, y, 0, 0) }

	const eps = 1e-5
	check := func(name string, w []float64, g []float64) {
		loss()
		analytic := append([]float64(nil), g...)
		for _, i := range []int{0, len(w) / 2, len(w) - 1} {
			orig := w[i]
			w[i] = orig + eps
			lp := loss()
			w[i] = orig - eps
			lm := loss()
			w[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if got := analytic[i] / float64(x.Rows); math.Abs(numeric-got) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %.8g vs numeric %.8g", name, i, got, numeric)
			}
		}
	}
	for i, layer := range net.backbone {
		check(fmt.Sprintf("dense%d.W", i), layer.W.Data, layer.gW.Data)
		check(fmt.Sprintf("dense%d.B", i), layer.B.Data, layer.gB.Data)
		head := net.heads[i]
		check(fmt.Sprintf("head%d.W", i), head.W.Data, head.gW.Data)
	}
}
