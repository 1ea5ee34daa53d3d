package dnn

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvArithmetic(t *testing.T) {
	// AlexNet conv1: 3x224x224 -> 64x55x55, 11x11 stride 4 pad 2.
	l := NewConv("conv1", Shape{C: 3, H: 224, W: 224}, 64, 11, 4, 2, true)
	if l.Out != (Shape{C: 64, H: 55, W: 55}) {
		t.Fatalf("conv1 out = %v, want 64x55x55", l.Out)
	}
	wantParams := int64(64*3*11*11 + 64)
	if l.Params != wantParams {
		t.Errorf("conv1 params = %d, want %d", l.Params, wantParams)
	}
	wantMACs := int64(64*55*55) * int64(3*11*11)
	if got := l.FLOPs; got != 2*wantMACs+64*55*55 {
		t.Errorf("conv1 FLOPs = %d, want %d", got, 2*wantMACs+64*55*55)
	}
}

func TestDepthwiseConvArithmetic(t *testing.T) {
	in := Shape{C: 32, H: 112, W: 112}
	l := NewDWConv("dw", in, 3, 1, 1, false)
	if l.Type != DWConv {
		t.Fatalf("type = %v, want dwconv", l.Type)
	}
	if l.Out != in {
		t.Fatalf("out = %v, want %v", l.Out, in)
	}
	if want := int64(32 * 3 * 3); l.Params != want {
		t.Errorf("params = %d, want %d", l.Params, want)
	}
	if want := 2 * int64(32*112*112) * 9; l.FLOPs != want {
		t.Errorf("FLOPs = %d, want %d", l.FLOPs, want)
	}
}

func TestFCArithmetic(t *testing.T) {
	l := NewFC("fc6", 9216, 4096, true)
	if want := int64(9216*4096 + 4096); l.Params != want {
		t.Errorf("params = %d, want %d", l.Params, want)
	}
	if want := int64(2*9216*4096 + 4096); l.FLOPs != want {
		t.Errorf("FLOPs = %d, want %d", l.FLOPs, want)
	}
}

func TestPoolShapes(t *testing.T) {
	p := NewMaxPool("pool", Shape{C: 64, H: 55, W: 55}, 3, 2, 0)
	if p.Out != (Shape{C: 64, H: 27, W: 27}) {
		t.Errorf("pool out = %v, want 64x27x27", p.Out)
	}
	g := NewGlobalAvgPool("gap", Shape{C: 512, H: 7, W: 7})
	if g.Out != (Shape{C: 512, H: 1, W: 1}) {
		t.Errorf("gap out = %v, want 512x1x1", g.Out)
	}
}

func TestGroupedConvPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible groups")
		}
	}()
	NewGroupedConv("bad", Shape{C: 3, H: 8, W: 8}, 8, 3, 1, 1, 2, false)
}

// Canonical parameter counts from torchvision; these pin the zoo to the
// real architectures.
func TestZooParameterCounts(t *testing.T) {
	want := map[string]int64{
		"alexnet":     61_100_840,
		"vgg16":       138_357_544,
		"resnet18":    11_689_512,
		"resnet34":    21_797_672,
		"resnet50":    25_557_032,
		"mobilenetv2": 3_504_872,
		"squeezenet":  1_248_424,
	}
	for name, w := range want {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got := m.TotalParams(); got != w {
			t.Errorf("%s params = %d, want %d (delta %d)", name, got, w, got-w)
		}
	}
}

func TestZooFLOPRanges(t *testing.T) {
	// FLOPs = 2*MACs (+small bias/act terms); canonical MAC counts are
	// AlexNet ~0.71G, VGG16 ~15.5G, ResNet18 ~1.82G, ResNet34 ~3.67G,
	// MobileNetV2 ~0.30G. Allow 15% slack for act/norm bookkeeping.
	type rng struct{ lo, hi float64 }
	// ResNet50 ~4.1 GMACs, SqueezeNet 1.0 ~0.82 GMACs.
	want := map[string]rng{
		"alexnet":     {2 * 0.71e9 * 0.9, 2 * 0.71e9 * 1.15},
		"vgg16":       {2 * 15.5e9 * 0.9, 2 * 15.5e9 * 1.15},
		"resnet18":    {2 * 1.82e9 * 0.9, 2 * 1.82e9 * 1.15},
		"resnet34":    {2 * 3.67e9 * 0.9, 2 * 3.67e9 * 1.15},
		"resnet50":    {2 * 4.1e9 * 0.85, 2 * 4.1e9 * 1.2},
		"mobilenetv2": {2 * 0.30e9 * 0.9, 2 * 0.32e9 * 1.25},
		"squeezenet":  {2 * 0.82e9 * 0.8, 2 * 0.82e9 * 1.25},
	}
	for name, w := range want {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		got := float64(m.TotalFLOPs())
		if got < w.lo || got > w.hi {
			t.Errorf("%s FLOPs = %.3g, want in [%.3g, %.3g]", name, got, w.lo, w.hi)
		}
	}
}

func TestZooValidates(t *testing.T) {
	for _, m := range Zoo() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if len(m.ExitCandidates()) < 4 {
			t.Errorf("%s: only %d exit candidates, want >= 4", m.Name, len(m.ExitCandidates()))
		}
	}
}

func TestPrefixFLOPsConsistency(t *testing.T) {
	for _, m := range Zoo() {
		if m.PrefixFLOPs(0) != 0 {
			t.Errorf("%s: PrefixFLOPs(0) = %d, want 0", m.Name, m.PrefixFLOPs(0))
		}
		var sum int64
		for i, u := range m.Units {
			sum += u.FLOPs()
			if got := m.PrefixFLOPs(i + 1); got != sum {
				t.Fatalf("%s: PrefixFLOPs(%d) = %d, want %d", m.Name, i+1, got, sum)
			}
		}
		if m.TotalFLOPs() != sum {
			t.Errorf("%s: TotalFLOPs = %d, want %d", m.Name, m.TotalFLOPs(), sum)
		}
	}
}

// TestRangeFLOPsProperty: the FLOPs of a unit range [i, j), which the
// surgery cost model takes as a difference of prefix sums, are non-negative
// and additive.
func TestRangeFLOPsProperty(t *testing.T) {
	m := ResNet18()
	n := m.NumUnits()
	rangeFLOPs := func(i, j int) int64 { return m.PrefixFLOPs(j) - m.PrefixFLOPs(i) }
	f := func(a, b uint8) bool {
		i := int(a) % (n + 1)
		j := int(b) % (n + 1)
		if i > j {
			i, j = j, i
		}
		r := rangeFLOPs(i, j)
		if r < 0 {
			return false
		}
		mid := (i + j) / 2
		return rangeFLOPs(i, mid)+rangeFLOPs(mid, j) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCutBytesEndpoints(t *testing.T) {
	for _, m := range Zoo() {
		if got := m.CutBytes(0); got != m.InputBytes() {
			t.Errorf("%s: CutBytes(0) = %d, want input %d", m.Name, got, m.InputBytes())
		}
		last := m.CutBytes(m.NumUnits())
		if last <= 0 {
			t.Errorf("%s: CutBytes(final) = %d, want > 0", m.Name, last)
		}
		if last > m.InputBytes() && m.Classes > 0 {
			t.Errorf("%s: classifier output (%d B) larger than input (%d B)", m.Name, last, m.InputBytes())
		}
	}
}

func TestMaxActivationBytes(t *testing.T) {
	for _, m := range Zoo() {
		max := m.MaxActivationBytes()
		if max < m.InputBytes() {
			t.Errorf("%s: max activation %d < input %d", m.Name, max, m.InputBytes())
		}
		for k := 0; k <= m.NumUnits(); k++ {
			if m.CutBytes(k) > max {
				t.Errorf("%s: CutBytes(%d) = %d exceeds reported max %d", m.Name, k, m.CutBytes(k), max)
			}
		}
	}
}

func TestValidateDetectsBrokenChain(t *testing.T) {
	m := AlexNet()
	// Corrupt a layer input shape.
	m.Units[2].Layers[0].In = Shape{C: 1, H: 1, W: 1}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted a broken chain")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestSummaryContainsUnits(t *testing.T) {
	s := ResNet18().Summary()
	if len(s) < 100 {
		t.Fatalf("summary too short: %q", s)
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{C: 3, H: 2, W: 4}
	if s.Elems() != 24 {
		t.Errorf("Elems = %d, want 24", s.Elems())
	}
	if s.Bytes() != 96 {
		t.Errorf("Bytes = %d, want 96", s.Bytes())
	}
	if Vec(10) != (Shape{C: 10, H: 1, W: 1}) {
		t.Errorf("Vec(10) = %v", Vec(10))
	}
}

func TestLayerTypeStrings(t *testing.T) {
	for i := 0; i < NumLayerTypes; i++ {
		if LayerType(i).String() == "" {
			t.Errorf("LayerType(%d) has empty name", i)
		}
	}
}
