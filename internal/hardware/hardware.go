// Package hardware models the heterogeneous compute substrate of an edge
// deployment: end devices (MCU boards, Raspberry-Pi-class SBCs, phones,
// Jetson-class accelerators) and edge servers (multicore CPU and GPU
// machines). A Profile converts the analytic layer costs from package dnn
// into execution-time estimates via a peak-FLOPS rating discounted by a
// per-layer-type efficiency factor — the standard roofline-style model used
// by partition planners (Neurosurgeon and successors), which the paper's
// testbed profiling step would otherwise calibrate on real hardware.
package hardware

import (
	"fmt"

	"edgesurgeon/internal/dnn"
)

// Class partitions hardware into device-side and server-side roles.
type Class int

const (
	// MCU is a microcontroller-class endpoint (e.g. Cortex-M7).
	MCU Class = iota
	// PiClass is a Raspberry-Pi-class single-board computer.
	PiClass
	// PhoneClass is a mid-range smartphone SoC.
	PhoneClass
	// JetsonClass is an embedded GPU module (Jetson Nano/TX2 class).
	JetsonClass
	// CPUServer is a multicore edge server without an accelerator.
	CPUServer
	// GPUServer is an edge server with a discrete inference GPU.
	GPUServer
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case MCU:
		return "mcu"
	case PiClass:
		return "pi"
	case PhoneClass:
		return "phone"
	case JetsonClass:
		return "jetson"
	case CPUServer:
		return "cpu-server"
	case GPUServer:
		return "gpu-server"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// IsServer reports whether the class plays the edge-server role.
func (c Class) IsServer() bool { return c == CPUServer || c == GPUServer }

// Profile is a calibrated execution model for one machine type.
type Profile struct {
	Name  string
	Class Class

	// PeakFLOPS is the nominal peak floating-point throughput in FLOP/s.
	PeakFLOPS float64
	// Eff discounts PeakFLOPS per layer type: achieved = Peak * Eff[type].
	// GEMM-shaped work (conv, fc) runs near peak; memory-bound layers
	// (depthwise conv, elementwise ops, pooling) run far below it,
	// especially on GPUs.
	Eff [dnn.NumLayerTypes]float64
	// MemBytes is the RAM available for weights + activations.
	MemBytes int64
	// LaunchOverhead is the fixed per-unit invocation cost in seconds
	// (kernel launch, runtime dispatch). Dominates tiny layers on GPUs.
	LaunchOverhead float64
	// ActiveWatts is the power drawn while computing, for device-energy
	// accounting (battery-powered endpoints).
	ActiveWatts float64
	// RadioWatts is the power drawn by the radio while transmitting.
	RadioWatts float64
}

// ComputeEnergy returns the energy in joules for sec seconds of active
// compute on this machine.
func (p *Profile) ComputeEnergy(sec float64) float64 { return p.ActiveWatts * sec }

// RadioEnergy returns the energy in joules for sec seconds of radio
// transmission from this machine.
func (p *Profile) RadioEnergy(sec float64) float64 { return p.RadioWatts * sec }

// EffFLOPS returns the achieved FLOP/s for the given layer type.
func (p *Profile) EffFLOPS(t dnn.LayerType) float64 {
	e := p.Eff[t]
	if e <= 0 {
		e = 0.01 // conservative floor for unprofiled layer types
	}
	return p.PeakFLOPS * e
}

// LayerTime returns the estimated execution time of a single layer in
// seconds.
func (p *Profile) LayerTime(l *dnn.Layer) float64 {
	if l.FLOPs == 0 {
		return 0
	}
	return float64(l.FLOPs) / p.EffFLOPS(l.Type)
}

// UnitTime returns the estimated execution time of one model unit in
// seconds, including the per-unit launch overhead.
func (p *Profile) UnitTime(u *dnn.Unit) float64 {
	t := p.LaunchOverhead
	for i := range u.Layers { // by index: a Layer is 136 bytes, too big to copy per visit
		t += p.LayerTime(&u.Layers[i])
	}
	return t
}

// RangeTime returns the estimated time to execute units [i, j) of m.
func (p *Profile) RangeTime(m *dnn.Model, i, j int) float64 {
	var t float64
	for k := i; k < j; k++ {
		t += p.UnitTime(m.Units[k])
	}
	return t
}

// ModelTime returns the estimated full-inference time for m in seconds.
func (p *Profile) ModelTime(m *dnn.Model) float64 {
	return p.RangeTime(m, 0, m.NumUnits())
}

// FLOPsTime converts a raw FLOP count into seconds assuming conv-class
// efficiency. Used for synthesized work such as early-exit branches.
func (p *Profile) FLOPsTime(flops int64) float64 {
	if flops <= 0 {
		return 0
	}
	return float64(flops) / p.EffFLOPS(dnn.Conv)
}

// FitsModel reports whether the machine can hold the model's weights plus
// its largest activation with a 2x working-set allowance.
func (p *Profile) FitsModel(m *dnn.Model) bool {
	need := m.ParamBytes() + 2*m.MaxActivationBytes()
	return need <= p.MemBytes
}

// effTable builds an efficiency table from the three numbers that matter:
// GEMM efficiency (conv/fc), memory-bound efficiency (elementwise, norm,
// pool, depthwise) and a softmax/misc factor.
func effTable(gemm, membound float64) [dnn.NumLayerTypes]float64 {
	var e [dnn.NumLayerTypes]float64
	e[dnn.Conv] = gemm
	e[dnn.FC] = gemm * 0.8 // FC is more bandwidth-bound than conv
	e[dnn.DWConv] = membound
	e[dnn.MaxPool] = membound
	e[dnn.AvgPool] = membound
	e[dnn.Act] = membound
	e[dnn.Norm] = membound
	e[dnn.Add] = membound
	e[dnn.Flatten] = 1
	e[dnn.Softmax] = membound
	e[dnn.Concat] = membound
	return e
}

const (
	mib = 1 << 20
	gib = 1 << 30
)

// Catalog returns the built-in machine catalog. Ratings are calibrated to
// public benchmark figures for each hardware class (order-of-magnitude
// correct; the experiments depend on the ordering and ratios, which these
// preserve).
func Catalog() []*Profile {
	return []*Profile{
		{
			Name: "mcu-m7", Class: MCU,
			PeakFLOPS: 0.2e9, Eff: effTable(0.5, 0.6),
			MemBytes: 16 * mib, LaunchOverhead: 5e-6,
			ActiveWatts: 0.4, RadioWatts: 0.3,
		},
		{
			Name: "rpi4", Class: PiClass,
			PeakFLOPS: 12e9, Eff: effTable(0.45, 0.35),
			MemBytes: 3 * gib, LaunchOverhead: 20e-6,
			ActiveWatts: 6.0, RadioWatts: 1.2,
		},
		{
			Name: "phone-soc", Class: PhoneClass,
			PeakFLOPS: 50e9, Eff: effTable(0.40, 0.30),
			MemBytes: 4 * gib, LaunchOverhead: 30e-6,
			ActiveWatts: 4.0, RadioWatts: 1.0,
		},
		{
			Name: "jetson-nano", Class: JetsonClass,
			PeakFLOPS: 470e9, Eff: effTable(0.30, 0.08),
			MemBytes: 4 * gib, LaunchOverhead: 120e-6,
			ActiveWatts: 10.0, RadioWatts: 1.2,
		},
		{
			Name: "edge-cpu-16c", Class: CPUServer,
			PeakFLOPS: 600e9, Eff: effTable(0.55, 0.25),
			MemBytes: 64 * gib, LaunchOverhead: 15e-6,
			ActiveWatts: 180, RadioWatts: 0,
		},
		{
			Name: "edge-gpu-t4", Class: GPUServer,
			PeakFLOPS: 8100e9, Eff: effTable(0.35, 0.04),
			MemBytes: 16 * gib, LaunchOverhead: 90e-6,
			ActiveWatts: 320, RadioWatts: 0,
		},
	}
}

// ByName returns the catalog profile with the given name.
func ByName(name string) (*Profile, error) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("hardware: unknown profile %q", name)
}

// Devices returns the device-side catalog entries.
func Devices() []*Profile {
	var out []*Profile
	for _, p := range Catalog() {
		if !p.Class.IsServer() {
			out = append(out, p)
		}
	}
	return out
}

// Servers returns the server-side catalog entries.
func Servers() []*Profile {
	var out []*Profile
	for _, p := range Catalog() {
		if p.Class.IsServer() {
			out = append(out, p)
		}
	}
	return out
}

// Scale returns a copy of p with capacity multiplied by factor — used to
// construct heterogeneity sweeps with fixed aggregate capacity.
func (p *Profile) Scale(factor float64, name string) *Profile {
	q := *p
	q.PeakFLOPS *= factor
	q.Name = name
	return &q
}
