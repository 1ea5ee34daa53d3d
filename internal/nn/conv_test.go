package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestConv2DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewConv2D(rng, 3, 8, 8, 4, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.OutH != 8 || c.OutW != 8 {
		t.Errorf("out = %dx%d, want 8x8 (same padding)", c.OutH, c.OutW)
	}
	x := NewMatrix(2, c.InSize())
	out := c.Forward(x)
	if out.Cols != c.OutSize() || out.Rows != 2 {
		t.Errorf("forward shape %dx%d", out.Rows, out.Cols)
	}
	if _, err := NewConv2D(rng, 1, 2, 2, 1, 5, 1, 0); err == nil {
		t.Error("accepted kernel larger than input")
	}
}

func TestConv2DKnownValue(t *testing.T) {
	// 1x3x3 input, single 2x2 kernel of ones, stride 1, no pad:
	// output[oy][ox] = sum of the 2x2 window.
	rng := rand.New(rand.NewSource(2))
	c, err := NewConv2D(rng, 1, 3, 3, 1, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.W {
		c.W[i] = 1
	}
	c.B[0] = 0.5
	x := NewMatrix(1, 9)
	copy(x.Data, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	out := c.Forward(x)
	want := []float64{1 + 2 + 4 + 5 + 0.5, 2 + 3 + 5 + 6 + 0.5, 4 + 5 + 7 + 8 + 0.5, 5 + 6 + 8 + 9 + 0.5}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPool2DKnownValue(t *testing.T) {
	p, err := NewMaxPool2D(1, 4, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := NewMatrix(1, 16)
	copy(x.Data, []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out := p.Forward(x)
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool = %v, want %v", out.Data, want)
		}
	}
	// Backward routes gradient to the argmax positions.
	d := NewMatrix(1, 4)
	copy(d.Data, []float64{1, 2, 3, 4})
	din := p.Backward(d)
	if din.Data[5] != 1 || din.Data[7] != 2 || din.Data[13] != 3 || din.Data[15] != 4 {
		t.Fatalf("pool backward = %v", din.Data)
	}
	var sum float64
	for _, v := range din.Data {
		sum += v
	}
	if sum != 10 {
		t.Errorf("gradient not conserved: %g", sum)
	}
}

// TestConvNetGradientCheck compares analytic parameter gradients against
// central finite differences — the gold-standard backpropagation test — on a
// conv-fronted multi-exit network (two conv+pool stages, two dense layers,
// an early and a final head), so every layer kind the engine trains is on
// the path: Conv2D, MaxPool2D, dense, and the head gradients injected into
// the backbone.
func TestConvNetGradientCheck(t *testing.T) {
	net, err := NewMultiExit(Config{
		In: 36, Conv: []ConvStage{{OutC: 2}, {OutC: 3}}, InC: 1, InH: 6, InW: 6,
		Hidden: []int{6, 5}, Exits: []int{0}, Classes: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	x := NewMatrix(4, 36)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := []int{0, 1, 1, 0}
	// A step at lr = 0 (momentum 0) moves nothing: it is the loss function,
	// and leaves the analytic gradients — sums over the batch of a loss it
	// reports as a mean — behind.
	loss := func() float64 { return net.trainBatch(x, y, 0, 0) }

	const eps = 1e-5
	check := func(name string, w []float64, g []float64, indices []int) {
		loss()
		analytic := append([]float64(nil), g...)
		for _, i := range indices {
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
	mid := func(w []float64) []int { return []int{0, len(w) / 2, len(w) - 1} }
	conv1, conv2 := net.front[0], net.front[1]
	check("conv1.W", conv1.W, conv1.gW, mid(conv1.W))
	check("conv1.B", conv1.B, conv1.gB, mid(conv1.B))
	check("conv2.W", conv2.W, conv2.gW, mid(conv2.W))
	for i, layer := range net.backbone {
		check(fmt.Sprintf("dense%d.W", i), layer.W.Data, layer.gW.Data, mid(layer.W.Data))
		check(fmt.Sprintf("dense%d.B", i), layer.B.Data, layer.gB.Data, mid(layer.B.Data))
		head := net.heads[i]
		check(fmt.Sprintf("head%d.W", i), head.W.Data, head.gW.Data, mid(head.W.Data))
	}
}

func TestStripeImagesBalanced(t *testing.T) {
	x, y := StripeImages(400, 8, 8, 0.1, 3)
	if x.Rows != 400 || x.Cols != 64 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	counts := map[int]int{}
	for _, c := range y {
		counts[c]++
	}
	if counts[0] < 120 || counts[1] < 120 {
		t.Errorf("unbalanced classes: %v", counts)
	}
}
