// Package dnn models deep neural networks as chains of computational units
// with exact analytic cost arithmetic (FLOPs, parameter counts, activation
// sizes). It is the substrate on which model surgery and partitioning
// decisions are made: the optimizer never executes a network, it only needs
// the per-layer compute/transfer profile, which is an architectural property
// this package computes exactly.
//
// A Model is a chain of Units. A Unit is the smallest granularity at which
// the model may be cut (partitioned between device and server) or at which
// an early-exit branch may be attached. Simple networks (AlexNet, VGG) have
// one layer per unit; residual and inverted-residual networks group each
// block into a single unit so that cuts never split a skip connection.
package dnn

import (
	"fmt"
	"strings"
	"sync"
)

// BytesPerElement is the size of one activation or weight element. All
// profiles assume float32 tensors, matching common edge deployments.
const BytesPerElement = 4

// LayerType enumerates the primitive layer kinds the cost model understands.
type LayerType int

const (
	// Conv is a standard (possibly grouped) 2-D convolution.
	Conv LayerType = iota
	// DWConv is a depthwise 2-D convolution (groups == channels).
	DWConv
	// FC is a fully connected (dense) layer.
	FC
	// MaxPool is a max-pooling layer.
	MaxPool
	// AvgPool is an average-pooling layer (including global average pool).
	AvgPool
	// Act is an elementwise activation (ReLU, ReLU6, sigmoid, ...).
	Act
	// Norm is a normalization layer (batch norm at inference time).
	Norm
	// Add is an elementwise residual addition.
	Add
	// Flatten reshapes a CHW tensor into a vector. Zero cost.
	Flatten
	// Softmax is the final classifier activation.
	Softmax
	// Concat joins the main chain with a side branch along channels
	// (e.g. SqueezeNet fire-module expand paths).
	Concat
	numLayerTypes
)

// String returns a short human-readable layer-type name.
func (t LayerType) String() string {
	switch t {
	case Conv:
		return "conv"
	case DWConv:
		return "dwconv"
	case FC:
		return "fc"
	case MaxPool:
		return "maxpool"
	case AvgPool:
		return "avgpool"
	case Act:
		return "act"
	case Norm:
		return "norm"
	case Add:
		return "add"
	case Flatten:
		return "flatten"
	case Softmax:
		return "softmax"
	case Concat:
		return "concat"
	default:
		return fmt.Sprintf("layertype(%d)", int(t))
	}
}

// NumLayerTypes is the number of distinct LayerType values; hardware
// profiles index per-type efficiency tables by LayerType.
const NumLayerTypes = int(numLayerTypes)

// Shape describes a CHW activation tensor. FC layers use C as the feature
// width with H = W = 1.
type Shape struct {
	C, H, W int
}

// Elems returns the number of elements in the tensor.
func (s Shape) Elems() int64 { return int64(s.C) * int64(s.H) * int64(s.W) }

// Bytes returns the serialized size of the tensor in bytes.
func (s Shape) Bytes() int64 { return s.Elems() * BytesPerElement }

// String renders the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Vec returns a 1-D shape with n features.
func Vec(n int) Shape { return Shape{C: n, H: 1, W: 1} }

// Layer is a single primitive operation with fully resolved input/output
// shapes and exact cost figures.
type Layer struct {
	Name string
	Type LayerType
	In   Shape
	Out  Shape

	// Kernel geometry; meaningful for Conv, DWConv and pooling layers.
	KH, KW, Stride, Pad int
	// Groups is the convolution group count (1 for dense convolution).
	Groups int

	// Params is the number of learnable scalars (weights + biases).
	Params int64
	// FLOPs is the number of floating point operations for one inference
	// (multiply-accumulate counted as 2 FLOPs).
	FLOPs int64

	// Side marks a layer that sits on a skip path (e.g. a residual
	// downsample projection). Side layers contribute cost but do not
	// participate in the main-chain shape flow.
	Side bool
}

// AsSide returns a copy of the layer marked as a skip-path side layer.
func (l Layer) AsSide() Layer {
	l.Side = true
	return l
}

// OutBytes returns the activation size produced by the layer.
func (l Layer) OutBytes() int64 { return l.Out.Bytes() }

func convOut(in Shape, outC, k, stride, pad int) Shape {
	oh := (in.H+2*pad-k)/stride + 1
	ow := (in.W+2*pad-k)/stride + 1
	return Shape{C: outC, H: oh, W: ow}
}

// NewConv builds a dense 2-D convolution layer. bias controls whether a
// per-output-channel bias is counted (convolutions immediately followed by
// batch norm are conventionally bias-free).
func NewConv(name string, in Shape, outC, k, stride, pad int, bias bool) Layer {
	return NewGroupedConv(name, in, outC, k, stride, pad, 1, bias)
}

// NewGroupedConv builds a grouped 2-D convolution layer with the given
// group count. in.C and outC must both be divisible by groups.
func NewGroupedConv(name string, in Shape, outC, k, stride, pad, groups int, bias bool) Layer {
	if in.C%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("dnn: conv %q: channels %d->%d not divisible by groups %d", name, in.C, outC, groups))
	}
	out := convOut(in, outC, k, stride, pad)
	if out.H <= 0 || out.W <= 0 {
		panic(fmt.Sprintf("dnn: conv %q: non-positive output %v from input %v k=%d s=%d p=%d", name, out, in, k, stride, pad))
	}
	weights := int64(outC) * int64(in.C/groups) * int64(k) * int64(k)
	params := weights
	if bias {
		params += int64(outC)
	}
	macs := out.Elems() * int64(in.C/groups) * int64(k) * int64(k)
	flops := 2 * macs
	if bias {
		flops += out.Elems()
	}
	typ := Conv
	if groups == in.C && groups == outC {
		typ = DWConv
	}
	return Layer{
		Name: name, Type: typ, In: in, Out: out,
		KH: k, KW: k, Stride: stride, Pad: pad, Groups: groups,
		Params: params, FLOPs: flops,
	}
}

// NewDWConv builds a depthwise convolution (groups == channels).
func NewDWConv(name string, in Shape, k, stride, pad int, bias bool) Layer {
	return NewGroupedConv(name, in, in.C, k, stride, pad, in.C, bias)
}

// NewFC builds a fully connected layer mapping in features to out features.
func NewFC(name string, in, out int, bias bool) Layer {
	params := int64(in) * int64(out)
	flops := 2 * int64(in) * int64(out)
	if bias {
		params += int64(out)
		flops += int64(out)
	}
	return Layer{
		Name: name, Type: FC, In: Vec(in), Out: Vec(out),
		Params: params, FLOPs: flops,
	}
}

// NewMaxPool builds a max-pooling layer.
func NewMaxPool(name string, in Shape, k, stride, pad int) Layer {
	out := convOut(in, in.C, k, stride, pad)
	return Layer{
		Name: name, Type: MaxPool, In: in, Out: out,
		KH: k, KW: k, Stride: stride, Pad: pad,
		FLOPs: out.Elems() * int64(k) * int64(k),
	}
}

// NewGlobalAvgPool pools each channel to a single value.
func NewGlobalAvgPool(name string, in Shape) Layer {
	return Layer{
		Name: name, Type: AvgPool, In: in, Out: Shape{C: in.C, H: 1, W: 1},
		KH: in.H, KW: in.W, Stride: 1,
		FLOPs: in.Elems(),
	}
}

// NewAct builds an elementwise activation layer.
func NewAct(name string, in Shape) Layer {
	return Layer{Name: name, Type: Act, In: in, Out: in, FLOPs: in.Elems()}
}

// NewNorm builds an inference-time batch normalization layer (per-channel
// scale and shift).
func NewNorm(name string, in Shape) Layer {
	return Layer{
		Name: name, Type: Norm, In: in, Out: in,
		Params: 2 * int64(in.C),
		FLOPs:  2 * in.Elems(),
	}
}

// NewAdd builds an elementwise residual addition layer.
func NewAdd(name string, in Shape) Layer {
	return Layer{Name: name, Type: Add, In: in, Out: in, FLOPs: in.Elems()}
}

// NewFlatten reshapes a CHW tensor into a feature vector.
func NewFlatten(name string, in Shape) Layer {
	return Layer{Name: name, Type: Flatten, In: in, Out: Vec(int(in.Elems()))}
}

// NewSoftmax builds the classifier softmax.
func NewSoftmax(name string, n int) Layer {
	return Layer{Name: name, Type: Softmax, In: Vec(n), Out: Vec(n), FLOPs: 3 * int64(n)}
}

// NewConcat joins extraC side-branch channels onto the main chain.
func NewConcat(name string, in Shape, extraC int) Layer {
	out := Shape{C: in.C + extraC, H: in.H, W: in.W}
	return Layer{Name: name, Type: Concat, In: in, Out: out, FLOPs: out.Elems()}
}

// Unit is the smallest partitionable fragment of a model: a short run of
// layers that must execute on the same machine (e.g. one residual block).
type Unit struct {
	Name   string
	Layers []Layer
	// ExitOK marks the unit boundary as a candidate early-exit attachment
	// point for model surgery.
	ExitOK bool
}

// In returns the unit's input shape (first main-chain layer).
func (u *Unit) In() Shape {
	for _, l := range u.Layers {
		if !l.Side {
			return l.In
		}
	}
	return Shape{}
}

// Out returns the unit's output shape (last main-chain layer).
func (u *Unit) Out() Shape {
	for i := len(u.Layers) - 1; i >= 0; i-- {
		if !u.Layers[i].Side {
			return u.Layers[i].Out
		}
	}
	return Shape{}
}

// FLOPs returns the unit's total floating point operations.
func (u *Unit) FLOPs() int64 {
	var f int64
	for _, l := range u.Layers {
		f += l.FLOPs
	}
	return f
}

// Params returns the unit's total learnable parameter count.
func (u *Unit) Params() int64 {
	var p int64
	for _, l := range u.Layers {
		p += l.Params
	}
	return p
}

// OutBytes returns the serialized activation size at the unit's output,
// i.e. the bytes transferred if the model is cut immediately after it.
func (u *Unit) OutBytes() int64 { return u.Out().Bytes() }

// Model is a chain of units describing a full network.
type Model struct {
	Name string
	// Input is the model's input tensor shape.
	Input Shape
	// Classes is the classifier width (0 for non-classifiers).
	Classes int
	Units   []*Unit

	// Derived read-only caches, built once on first use. Guarded by a
	// sync.Once so concurrent planners may share one *Model; the unit
	// chain itself must not be mutated after first use.
	cacheOnce      sync.Once
	prefixFLOPs    []int64 // prefixFLOPs[i] = FLOPs of units [0, i)
	prefixParamB   []int64 // prefixParamB[i] = weight bytes of units [0, i)
	maxActPrefix   []int64 // maxActPrefix[i] = max activation bytes through unit i
	exitCandidates []int   // cut positions with ExitOK, ascending
}

// NumUnits returns the number of partitionable units.
func (m *Model) NumUnits() int { return len(m.Units) }

// TotalFLOPs returns FLOPs for one full inference.
func (m *Model) TotalFLOPs() int64 { return m.PrefixFLOPs(len(m.Units)) }

// TotalParams returns the total parameter count.
func (m *Model) TotalParams() int64 {
	var p int64
	for _, u := range m.Units {
		p += u.Params()
	}
	return p
}

// ParamBytes returns the serialized model weight size.
func (m *Model) ParamBytes() int64 { return m.TotalParams() * BytesPerElement }

// InputBytes returns the serialized input tensor size.
func (m *Model) InputBytes() int64 { return m.Input.Bytes() }

// PrefixFLOPs returns the FLOPs of the first k units.
func (m *Model) PrefixFLOPs(k int) int64 {
	m.ensureCaches()
	return m.prefixFLOPs[k]
}

// RangeFLOPs returns the FLOPs of units [i, j).
func (m *Model) RangeFLOPs(i, j int) int64 {
	return m.PrefixFLOPs(j) - m.PrefixFLOPs(i)
}

// PrefixParamBytes returns the serialized weight bytes of the first k units
// (the device-resident model slice when the network is cut after unit k).
func (m *Model) PrefixParamBytes(k int) int64 {
	m.ensureCaches()
	return m.prefixParamB[k]
}

// MaxActBytesThrough returns the largest activation produced at or before
// cut k, including the input tensor (k == 0 returns InputBytes).
func (m *Model) MaxActBytesThrough(k int) int64 {
	m.ensureCaches()
	return m.maxActPrefix[k]
}

// ensureCaches builds all derived read-only caches exactly once. It is safe
// for concurrent use, which planners on several goroutines sharing a
// frontier-table set rely on when they fill tables of one *Model.
func (m *Model) ensureCaches() {
	m.cacheOnce.Do(func() {
		n := len(m.Units)
		m.prefixFLOPs = make([]int64, n+1)
		m.prefixParamB = make([]int64, n+1)
		m.maxActPrefix = make([]int64, n+1)
		m.maxActPrefix[0] = m.InputBytes()
		for i, u := range m.Units {
			m.prefixFLOPs[i+1] = m.prefixFLOPs[i] + u.FLOPs()
			m.prefixParamB[i+1] = m.prefixParamB[i] + u.Params()*BytesPerElement
			m.maxActPrefix[i+1] = m.maxActPrefix[i]
			if b := u.OutBytes(); b > m.maxActPrefix[i+1] {
				m.maxActPrefix[i+1] = b
			}
			if u.ExitOK {
				m.exitCandidates = append(m.exitCandidates, i+1)
			}
		}
	})
}

// CutBytes returns the bytes that must cross the network when the model is
// cut after unit k (0 <= k <= NumUnits). k == 0 means "ship the raw input";
// k == NumUnits means "fully local" and returns the (tiny) output size.
func (m *Model) CutBytes(k int) int64 {
	if k == 0 {
		return m.InputBytes()
	}
	return m.Units[k-1].OutBytes()
}

// MaxActivationBytes returns the largest inter-unit activation, a proxy for
// peak transfer cost across all cut points.
func (m *Model) MaxActivationBytes() int64 {
	return m.MaxActBytesThrough(len(m.Units))
}

// ExitCandidates returns the unit indices (1-based cut positions: a value k
// means "after unit k") at which an early exit may be attached. The slice
// is computed once, cached on the model, and shared across calls: callers
// must treat it as read-only.
func (m *Model) ExitCandidates() []int {
	m.ensureCaches()
	return m.exitCandidates
}

// Validate checks chain shape consistency and returns a descriptive error
// for the first inconsistency found.
func (m *Model) Validate() error {
	if len(m.Units) == 0 {
		return fmt.Errorf("dnn: model %q has no units", m.Name)
	}
	prev := m.Input
	for ui, u := range m.Units {
		if len(u.Layers) == 0 {
			return fmt.Errorf("dnn: model %q unit %d (%s) has no layers", m.Name, ui, u.Name)
		}
		for li, l := range u.Layers {
			if l.Side {
				continue
			}
			// Residual adds consume the skip tensor too; their declared
			// input is the main-branch tensor which must match.
			if l.In != prev {
				return fmt.Errorf("dnn: model %q unit %d (%s) layer %d (%s): input %v != previous output %v",
					m.Name, ui, u.Name, li, l.Name, l.In, prev)
			}
			prev = l.Out
		}
	}
	return nil
}

// Summary renders a one-line-per-unit description of the model.
func (m *Model) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: input %v, %d units, %.2f GFLOPs, %.2f M params\n",
		m.Name, m.Input, m.NumUnits(),
		float64(m.TotalFLOPs())/1e9, float64(m.TotalParams())/1e6)
	for i, u := range m.Units {
		exit := " "
		if u.ExitOK {
			exit = "E"
		}
		fmt.Fprintf(&b, "  [%2d]%s %-18s out=%-12v %8.1f MFLOPs %8.2f KB act\n",
			i+1, exit, u.Name, u.Out(),
			float64(u.FLOPs())/1e6, float64(u.OutBytes())/1024)
	}
	return b.String()
}
