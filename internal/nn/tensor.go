// Package nn is a small, dependency-free neural-network engine used to
// train and run *real* multi-exit networks, so the exit-rate and accuracy
// curves the optimizer assumes (package surgery) can be measured end-to-end
// instead of assumed. It implements dense layers, ReLU, softmax
// cross-entropy, SGD with momentum, and multi-exit heads with
// confidence-threshold inference.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: bad matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Randomize fills the matrix with He-scaled Gaussian values.
func (m *Matrix) Randomize(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// MatMul computes dst = a * b, reusing dst when shapes match (pass nil to
// allocate).
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Rows || dst.Cols != b.Cols {
		dst = NewMatrix(a.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := range dr {
			dr[j] = 0
		}
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
	return dst
}

// MatMulATB computes dst = aᵀ * b (used for weight gradients).
func MatMulATB(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matmulATB shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Cols || dst.Cols != b.Cols {
		dst = NewMatrix(a.Cols, b.Cols)
	} else {
		for i := range dst.Data {
			dst.Data[i] = 0
		}
	}
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		br := b.Row(r)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			dr := dst.Row(i)
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
	return dst
}

// MatMulABT computes dst = a * bᵀ (used for input gradients).
func MatMulABT(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulABT shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Rows || dst.Cols != b.Rows {
		dst = NewMatrix(a.Rows, b.Rows)
	}
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brj := b.Row(j)
			var s float64
			for k, av := range ar {
				s += av * brj[k]
			}
			dr[j] = s
		}
	}
	return dst
}
