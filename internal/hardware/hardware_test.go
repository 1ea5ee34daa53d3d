package hardware

import (
	"math/rand"
	"testing"
	"testing/quick"

	"edgesurgeon/internal/dnn"
)

func TestCatalogOrdering(t *testing.T) {
	// The whole experiment suite relies on the capability ordering
	// GPU server > CPU server >~ Jetson > phone > Pi > MCU for GEMM work.
	m := dnn.ResNet18()
	var prev float64
	order := []string{"edge-gpu-t4", "edge-cpu-16c", "jetson-nano", "phone-soc", "rpi4"}
	for i, name := range order {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tt := p.ModelTime(m)
		if tt <= 0 {
			t.Fatalf("%s: non-positive model time %g", name, tt)
		}
		if i > 0 && tt <= prev {
			t.Errorf("%s (%.4gs) should be slower than previous (%.4gs)", name, tt, prev)
		}
		prev = tt
	}
}

func TestLayerTimePositive(t *testing.T) {
	for _, p := range Catalog() {
		for _, m := range dnn.Zoo() {
			for _, u := range m.Units {
				if tt := p.UnitTime(u); tt <= 0 {
					t.Fatalf("%s/%s/%s: unit time %g", p.Name, m.Name, u.Name, tt)
				}
			}
		}
	}
}

func TestRangeTimeAdditive(t *testing.T) {
	p, _ := ByName("rpi4")
	m := dnn.VGG16()
	n := m.NumUnits()
	f := func(a, b, c uint8) bool {
		i, j, k := int(a)%(n+1), int(b)%(n+1), int(c)%(n+1)
		if i > j {
			i, j = j, i
		}
		if j > k {
			j, k = k, j
		}
		if i > j {
			i, j = j, i
		}
		lhs := p.RangeTime(m, i, j) + p.RangeTime(m, j, k)
		rhs := p.RangeTime(m, i, k)
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestMemoryFeasibility(t *testing.T) {
	mcu, _ := ByName("mcu-m7")
	gpu, _ := ByName("edge-gpu-t4")
	vgg := dnn.VGG16()
	if mcu.FitsModel(vgg) {
		t.Error("MCU should not fit VGG16 (528 MB of weights)")
	}
	if !gpu.FitsModel(vgg) {
		t.Error("GPU server should fit VGG16")
	}
}

func TestGPULaunchOverheadDominatesTinyWork(t *testing.T) {
	// A GPU is slower than a Pi on a unit whose work is negligible,
	// because of launch overhead — the effect that makes naive full
	// offloading of tiny layers wasteful.
	gpu, _ := ByName("edge-gpu-t4")
	pi, _ := ByName("rpi4")
	tiny := dnn.NewAct("relu", dnn.Shape{C: 1, H: 4, W: 4})
	u := &dnn.Unit{Name: "tiny", Layers: []dnn.Layer{tiny}}
	if gpu.UnitTime(u) <= pi.UnitTime(u) {
		t.Errorf("gpu tiny-unit time %.3g should exceed pi %.3g", gpu.UnitTime(u), pi.UnitTime(u))
	}
}

func TestFLOPsTime(t *testing.T) {
	p, _ := ByName("edge-cpu-16c")
	if p.FLOPsTime(0) != 0 {
		t.Error("zero FLOPs should cost zero time")
	}
	t1 := p.FLOPsTime(1e9)
	t2 := p.FLOPsTime(2e9)
	if t2 <= t1 || t1 <= 0 {
		t.Errorf("FLOPsTime not monotone: %g, %g", t1, t2)
	}
}

func TestScalePreservesShape(t *testing.T) {
	p, _ := ByName("edge-cpu-16c")
	q := p.Scale(2, "edge-cpu-32c")
	if q.PeakFLOPS != 2*p.PeakFLOPS {
		t.Errorf("scaled peak = %g, want %g", q.PeakFLOPS, 2*p.PeakFLOPS)
	}
	if q.Name != "edge-cpu-32c" || p.Name != "edge-cpu-16c" {
		t.Error("Scale must not mutate the original")
	}
	m := dnn.ResNet18()
	r := q.ModelTime(m) / p.ModelTime(m)
	// Launch overhead is not scaled, so the ratio is slightly above 0.5.
	if r < 0.49 || r > 0.56 {
		t.Errorf("2x scale gave time ratio %.3f, want ~0.5", r)
	}
}

func TestDevicesServersSplit(t *testing.T) {
	d, s := Devices(), Servers()
	if len(d)+len(s) != len(Catalog()) {
		t.Fatalf("split sizes %d + %d != catalog %d", len(d), len(s), len(Catalog()))
	}
	for _, p := range d {
		if p.Class.IsServer() {
			t.Errorf("%s classified as device but IsServer", p.Name)
		}
	}
	for _, p := range s {
		if !p.Class.IsServer() {
			t.Errorf("%s classified as server but not IsServer", p.Name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("cray-1"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEffFLOPSFloor(t *testing.T) {
	p := &Profile{Name: "blank", PeakFLOPS: 1e9}
	// Unset efficiency entries must not produce zero/negative throughput.
	for i := 0; i < dnn.NumLayerTypes; i++ {
		if got := p.EffFLOPS(dnn.LayerType(i)); got <= 0 {
			t.Errorf("EffFLOPS(%v) = %g, want > 0", dnn.LayerType(i), got)
		}
	}
}

var sinkSeconds float64

// BenchmarkUnitTime prices every unit of MobileNetV2 — the zoo's longest layer
// walk, 153 layers — once per iteration: the loop every surgery kernel build,
// every reference Evaluate and the simulator's pipeline run through.
func BenchmarkUnitTime(b *testing.B) {
	p, err := ByName("rpi4")
	if err != nil {
		b.Fatal(err)
	}
	m := dnn.MobileNetV2()
	layers := 0
	for _, u := range m.Units {
		layers += len(u.Layers)
	}
	if layers != 153 {
		b.Fatalf("mobilenetv2 has %d layers, the benchmark's doc says 153", layers)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range m.Units {
			sinkSeconds += p.UnitTime(u)
		}
	}
}
