package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// dense is one fully connected layer with bias.
type dense struct {
	W, B   *Matrix // W: in x out, B: 1 x out
	gW, gB *Matrix // gradients
	mW, mB *Matrix // momentum buffers
	in     *Matrix // cached forward input
}

func newDense(rng *rand.Rand, in, out int) *dense {
	d := &dense{
		W: NewMatrix(in, out), B: NewMatrix(1, out),
		gW: NewMatrix(in, out), gB: NewMatrix(1, out),
		mW: NewMatrix(in, out), mB: NewMatrix(1, out),
	}
	d.W.Randomize(rng, in)
	return d
}

func (d *dense) forward(x *Matrix) *Matrix {
	d.in = x
	out := MatMul(nil, x, d.W)
	for i := 0; i < out.Rows; i++ {
		r := out.Row(i)
		for j := range r {
			r[j] += d.B.Data[j]
		}
	}
	return out
}

// backward consumes dOut and returns dIn, accumulating weight gradients.
func (d *dense) backward(dOut *Matrix) *Matrix {
	MatMulATB(d.gW, d.in, dOut)
	for j := 0; j < d.gB.Cols; j++ {
		var s float64
		for i := 0; i < dOut.Rows; i++ {
			s += dOut.At(i, j)
		}
		d.gB.Data[j] = s
	}
	return MatMulABT(nil, dOut, d.W)
}

func (d *dense) step(lr, momentum float64, batch int) {
	scale := lr / float64(batch)
	for i, g := range d.gW.Data {
		d.mW.Data[i] = momentum*d.mW.Data[i] - scale*g
		d.W.Data[i] += d.mW.Data[i]
	}
	for i, g := range d.gB.Data {
		d.mB.Data[i] = momentum*d.mB.Data[i] - scale*g
		d.B.Data[i] += d.mB.Data[i]
	}
}

func relu(x *Matrix) *Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

func reluBackward(x, dOut *Matrix) *Matrix {
	dIn := dOut.Clone()
	for i, v := range x.Data {
		if v <= 0 {
			dIn.Data[i] = 0
		}
	}
	return dIn
}

// softmaxRows converts logits to probabilities in place, row-wise.
func softmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		max := r[0]
		for _, v := range r[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range r {
			e := math.Exp(v - max)
			r[j] = e
			sum += e
		}
		for j := range r {
			r[j] /= sum
		}
	}
}

// MultiExit is a multi-exit classifier: a dense backbone and a softmax head
// after each configured backbone layer. The final backbone layer always
// carries the last (mandatory) head.
type MultiExit struct {
	backbone []*dense
	heads    map[int]*dense // head after backbone layer i (0-based)
	exits    []int          // sorted backbone indices carrying heads
	classes  int
}

// Config describes a multi-exit network.
type Config struct {
	// In is the input feature width.
	In int
	// Hidden lists the dense backbone layer widths.
	Hidden []int
	// Exits are the 0-based backbone layer indices carrying exit heads.
	// The last backbone layer is always added if absent.
	Exits []int
	// Classes is the label count.
	Classes int
	// Seed fixes initialization.
	Seed int64
}

// NewMultiExit builds and initializes the network.
func NewMultiExit(cfg Config) (*MultiExit, error) {
	if cfg.In <= 0 || cfg.Classes <= 1 || len(cfg.Hidden) == 0 {
		return nil, fmt.Errorf("nn: bad config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MultiExit{heads: make(map[int]*dense), classes: cfg.Classes}
	in := cfg.In
	for _, h := range cfg.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: bad hidden width %d", h)
		}
		m.backbone = append(m.backbone, newDense(rng, in, h))
		in = h
	}
	last := len(cfg.Hidden) - 1
	want := append([]int(nil), cfg.Exits...)
	hasLast := false
	for _, e := range want {
		if e < 0 || e > last {
			return nil, fmt.Errorf("nn: exit index %d out of range", e)
		}
		if e == last {
			hasLast = true
		}
	}
	if !hasLast {
		want = append(want, last)
	}
	for _, e := range want {
		if _, dup := m.heads[e]; dup {
			return nil, fmt.Errorf("nn: duplicate exit %d", e)
		}
		m.heads[e] = newDense(rng, cfg.Hidden[e], cfg.Classes)
		m.exits = append(m.exits, e)
	}
	// Sort exits ascending (insertion; the list is tiny).
	for i := 1; i < len(m.exits); i++ {
		for j := i; j > 0 && m.exits[j] < m.exits[j-1]; j-- {
			m.exits[j], m.exits[j-1] = m.exits[j-1], m.exits[j]
		}
	}
	return m, nil
}

// forwardAll runs the backbone and every head, returning per-exit
// probability matrices and caching activations for backward.
type forwardCache struct {
	pre  []*Matrix // backbone pre-activations
	post []*Matrix // backbone post-ReLU activations
	prob map[int]*Matrix
}

func (m *MultiExit) forwardAll(x *Matrix) *forwardCache {
	fc := &forwardCache{prob: make(map[int]*Matrix)}
	cur := x
	for i, layer := range m.backbone {
		z := layer.forward(cur)
		fc.pre = append(fc.pre, z)
		cur = relu(z)
		fc.post = append(fc.post, cur)
		if head, ok := m.heads[i]; ok {
			logits := head.forward(cur)
			softmaxRows(logits)
			fc.prob[i] = logits
		}
	}
	return fc
}

// TrainEpoch runs one epoch of mini-batch SGD over the dataset with the
// standard joint multi-exit loss (sum of per-exit cross entropies, later
// exits weighted higher) and returns the mean loss.
func (m *MultiExit) TrainEpoch(ds *Dataset, batch int, lr, momentum float64, rng *rand.Rand) float64 {
	n := ds.Len()
	order := rng.Perm(n)
	var totalLoss float64
	var batches int
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		bs := end - start
		x := NewMatrix(bs, ds.Features)
		y := make([]int, bs)
		for i := 0; i < bs; i++ {
			copy(x.Row(i), ds.X.Row(order[start+i]))
			y[i] = ds.Y[order[start+i]]
		}
		totalLoss += m.trainBatch(x, y, lr, momentum)
		batches++
	}
	if batches == 0 {
		return 0
	}
	return totalLoss / float64(batches)
}

func (m *MultiExit) trainBatch(x *Matrix, y []int, lr, momentum float64) float64 {
	fc := m.forwardAll(x)
	bs := x.Rows

	// Per-exit loss weights rise with depth so the final head stays the
	// most accurate, matching multi-exit training practice.
	weightOf := func(rank int) float64 { return 0.5 + 0.5*float64(rank+1)/float64(len(m.exits)) }

	// Accumulate backbone gradient flowing backward; start from zero and
	// inject each head's gradient at its layer.
	var loss float64
	headGrad := make(map[int]*Matrix)
	for rank, e := range m.exits {
		prob := fc.prob[e]
		w := weightOf(rank)
		// dLogits = (prob - onehot) * w ; loss = -w * log(prob[y]).
		d := prob.Clone()
		for i := 0; i < bs; i++ {
			p := math.Max(prob.At(i, y[i]), 1e-12)
			loss += -w * math.Log(p)
			d.Set(i, y[i], d.At(i, y[i])-1)
		}
		for i := range d.Data {
			d.Data[i] *= w
		}
		headGrad[e] = d
	}

	var dCur *Matrix
	for i := len(m.backbone) - 1; i >= 0; i-- {
		if dHead, ok := headGrad[i]; ok {
			dPost := m.heads[i].backward(dHead)
			if dCur == nil {
				dCur = dPost
			} else {
				for k := range dCur.Data {
					dCur.Data[k] += dPost.Data[k]
				}
			}
		}
		if dCur == nil {
			continue
		}
		dPre := reluBackward(fc.pre[i], dCur)
		dCur = m.backbone[i].backward(dPre)
	}

	for i, layer := range m.backbone {
		layer.step(lr, momentum, bs)
		if head, ok := m.heads[i]; ok {
			head.step(lr, momentum, bs)
		}
	}
	return loss / float64(bs)
}

// Prediction is one sample's inference outcome under threshold inference.
type Prediction struct {
	// Exit is the backbone index of the head that fired.
	Exit int
	// ExitRank is the position of that head in Exits().
	ExitRank int
	// Class is the predicted label.
	Class int
	// Confidence is the winning softmax probability at the firing head.
	Confidence float64
}

// Infer classifies every row of x with confidence-threshold early exits: a
// sample leaves at the first head whose top softmax probability reaches
// threshold; the last head always fires.
func (m *MultiExit) Infer(x *Matrix, threshold float64) []Prediction {
	fc := m.forwardAll(x)
	out := make([]Prediction, x.Rows)
	done := make([]bool, x.Rows)
	for rank, e := range m.exits {
		prob := fc.prob[e]
		lastExit := rank == len(m.exits)-1
		for i := 0; i < x.Rows; i++ {
			if done[i] {
				continue
			}
			r := prob.Row(i)
			best, bestP := 0, r[0]
			for j, p := range r[1:] {
				if p > bestP {
					best, bestP = j+1, p
				}
			}
			if bestP >= threshold || lastExit {
				out[i] = Prediction{Exit: e, ExitRank: rank, Class: best, Confidence: bestP}
				done[i] = true
			}
		}
	}
	return out
}

// EvalResult summarizes threshold inference over a dataset.
type EvalResult struct {
	Accuracy float64
	// ExitRate[rank] is the fraction of samples leaving at Exits()[rank].
	ExitRate []float64
	// ExitAccuracy[rank] is the accuracy among samples leaving there
	// (NaN-free: 0 when no samples exited at that head).
	ExitAccuracy []float64
	// MeanDepth is the mean fraction of backbone layers executed.
	MeanDepth float64
}

// Evaluate runs threshold inference over the dataset and aggregates.
func (m *MultiExit) Evaluate(ds *Dataset, threshold float64) EvalResult {
	preds := m.Infer(ds.X, threshold)
	res := EvalResult{
		ExitRate:     make([]float64, len(m.exits)),
		ExitAccuracy: make([]float64, len(m.exits)),
	}
	correctAt := make([]int, len(m.exits))
	countAt := make([]int, len(m.exits))
	nLayers := float64(len(m.backbone))
	var correct int
	var depth float64
	for i, p := range preds {
		countAt[p.ExitRank]++
		depth += float64(p.Exit+1) / nLayers
		if p.Class == ds.Y[i] {
			correct++
			correctAt[p.ExitRank]++
		}
	}
	n := ds.Len()
	res.Accuracy = float64(correct) / float64(n)
	res.MeanDepth = depth / float64(n)
	for r := range m.exits {
		res.ExitRate[r] = float64(countAt[r]) / float64(n)
		if countAt[r] > 0 {
			res.ExitAccuracy[r] = float64(correctAt[r]) / float64(countAt[r])
		}
	}
	return res
}
