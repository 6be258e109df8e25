package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the nonlinearity of a layer.
type Activation int

// Supported activations.
const (
	// Identity applies no nonlinearity (output layers).
	Identity Activation = iota + 1
	// ReLU is max(0, x).
	ReLU
	// Tanh is the hyperbolic tangent.
	Tanh
)

// apply computes dst = σ(z) element-wise over equal-length slices.
func (a Activation) apply(dst, z []float64) {
	switch a {
	case Identity:
		copy(dst, z)
	case ReLU:
		for i, v := range z {
			if v < 0 {
				dst[i] = 0
			} else {
				dst[i] = v
			}
		}
	case Tanh:
		for i, v := range z {
			dst[i] = math.Tanh(v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// backwardInto computes dst = dY ⊙ dσ/dz element-wise from the cached
// output y = σ(z), resizing dst in place.
func (a Activation) backwardInto(dst, dY, y *Matrix) {
	shapeEqual("activation backward", dY, y)
	dst.EnsureShape(y.Rows, y.Cols)
	a.backward(dst.Data, dY.Data, y.Data)
}

// backward computes dst = dY ⊙ dσ/dz over equal-length slices, from the
// output y alone: tanh' = 1 − y², and a ReLU passes the gradient exactly
// where z > 0, which is where y > 0.
func (a Activation) backward(dst, dY, y []float64) {
	switch a {
	case Identity:
		copy(dst, dY)
	case ReLU:
		for i, v := range y {
			if v > 0 {
				dst[i] = dY[i] * 1
			} else {
				// dY·0, not the constant 0: keeps zero signs and NaN
				// propagation of the element-wise product.
				dst[i] = dY[i] * 0
			}
		}
	case Tanh:
		for i, v := range y {
			dst[i] = dY[i] * (1 - v*v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// Dense is a fully connected layer y = σ(xW + b) with cached forward state
// for backpropagation. Inputs are batch-major: x is batch×in, one sample
// per row.
//
// Forward and Backward write into layer-owned scratch matrices that are
// resized in place, so steady-state evaluation allocates nothing. The
// returned matrices are owned by the layer and valid until its next
// Forward/Backward call; callers that retain results must copy them.
//
// Rows are independent samples: row i of the output (and of the input
// gradient) is computed from row i of the input alone, with the same
// operations whatever the batch size. The weight gradient accumulates one
// row at a time, in row order, so backpropagating a batch adds exactly what
// backpropagating its rows one by one, in order, adds.
type Dense struct {
	In, Out int
	Act     Activation

	W *Matrix // In×Out
	B *Matrix // 1×Out

	gradW *Matrix
	gradB *Matrix

	lastX *Matrix // batch×In (caller-owned input, not copied)
	y     *Matrix // output scratch (the pre-activation until σ is applied)

	dY   *Matrix // upstream gradient of the running backward (caller-owned)
	rows []int   // rows of the running backward (nil: all)
	live int     // input-gradient columns of the running backward (allInputs: every column, ungated)
	dZ   *Matrix // backward scratch: dY ⊙ σ'
	dX   *Matrix // backward scratch: returned input gradient
}

// allInputs asks a dense backward for the input gradient of every column.
const allInputs = -1

// NewDense builds a dense layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W: NewMatrix(in, out), B: NewMatrix(1, out),
		gradW: NewMatrix(in, out), gradB: NewMatrix(1, out),
		y: new(Matrix), dZ: new(Matrix), dX: new(Matrix),
	}
	d.W.XavierInit(rng, in, out)
	return d
}

// Forward computes the layer output and caches intermediates. The returned
// matrix is layer-owned scratch, valid until the next Forward call.
func (d *Dense) Forward(x *Matrix) *Matrix { return d.forward(x, nil) }

// forward is Forward with the rows spread over t's goroutines.
func (d *Dense) forward(x *Matrix, t *Team) *Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense input %d, want %d", x.Cols, d.In))
	}
	if aliases(d.y, x) {
		panic("nn: matmul destination aliases an operand")
	}
	d.y.EnsureShape(x.Rows, d.Out)
	d.lastX = x
	t.For(x.Rows, d.In*d.Out, denseForward{d})
	return d.y
}

// denseForward computes rows of y = σ(xW + b), in place.
type denseForward struct{ d *Dense }

func (f denseForward) Run(lo, hi int) {
	d := f.d
	matMulRows(d.y, d.lastX, d.W, lo, hi)
	y := d.y.Data[lo*d.Out : hi*d.Out]
	for r := 0; r < hi-lo; r++ {
		row := y[r*d.Out : (r+1)*d.Out]
		for c, bv := range d.B.Data {
			row[c] += bv
		}
	}
	d.Act.apply(y, y)
}

// Backward accumulates parameter gradients for upstream gradient dY and
// returns the gradient with respect to the input (layer-owned scratch).
func (d *Dense) Backward(dY *Matrix) *Matrix { return d.backward(dY, nil, allInputs, nil) }

// backward is Backward restricted to the rows that rows lists (nil: all),
// in list order, with the work spread over t's goroutines: rows of dZ and
// dX per goroutine, then rows of the weight gradient per goroutine, each
// element summing the listed rows in order. Only the listed rows of the
// returned input gradient are written, and of those, unless live is
// allInputs, only the first live columns, gated by the input: an entry is
// computed where the input is positive and 0 elsewhere.
func (d *Dense) backward(dY *Matrix, rows []int, live int, t *Team) *Matrix {
	if d.lastX == nil {
		panic("nn: dense backward before forward")
	}
	shapeEqual("activation backward", dY, d.y)
	if live != allInputs && (live < 0 || live > d.In) {
		panic(fmt.Sprintf("nn: dense input gradient over %d of %d columns", live, d.In))
	}
	d.dZ.EnsureShape(d.y.Rows, d.Out)
	d.dX.EnsureShape(d.y.Rows, d.In)
	d.dY, d.rows, d.live = dY, rows, live
	n := rowCount(rows, d.y.Rows)
	t.For(n, d.In*d.Out, denseBackRows{d})
	t.For(d.In, n*d.Out, denseGradW{d})
	// Bias gradient: column sums of dZ, row by row.
	for r := 0; r < n; r++ {
		k := rowAt(rows, r)
		for c, g := range d.dZ.Data[k*d.Out : (k+1)*d.Out] {
			d.gradB.Data[c] += g
		}
	}
	d.dY, d.rows = nil, nil
	return d.dX
}

// denseBackRows computes dZ and dX = dZ Wᵀ for listed rows [lo, hi).
type denseBackRows struct{ d *Dense }

func (f denseBackRows) Run(lo, hi int) {
	d := f.d
	for r := lo; r < hi; r++ {
		k := rowAt(d.rows, r)
		span := func(m *Matrix) []float64 { return m.Data[k*d.Out : (k+1)*d.Out] }
		d.Act.backward(span(d.dZ), span(d.dY), span(d.y))
		if d.live == allInputs {
			matMulBTRow(d.dX, d.dZ, d.W, k, d.In, nil)
		} else {
			matMulBTRow(d.dX, d.dZ, d.W, k, d.live, d.lastX.Data[k*d.In:k*d.In+d.live])
		}
	}
}

// denseGradW accumulates rows [lo, hi) of gradW += xᵀ dZ.
type denseGradW struct{ d *Dense }

func (f denseGradW) Run(lo, hi int) {
	d := f.d
	matMulATAddRows(d.gradW, d.lastX, d.dZ, d.rows, lo, hi)
}

// Params exposes the layer parameters to the optimizer.
func (d *Dense) Params() []Param {
	return []Param{
		{Value: d.W, Grad: d.gradW, Name: "dense.W"},
		{Value: d.B, Grad: d.gradB, Name: "dense.B"},
	}
}

// MLP is a multi-layer perceptron: hidden layers with a shared activation
// followed by an identity output layer.
type MLP struct {
	layers []*Dense
}

// NewMLP builds an MLP with the given hidden sizes (e.g. 256, 256 for the
// paper's default actor/critic heads) and output dimension.
func NewMLP(rng *rand.Rand, in int, hidden []int, out int, act Activation) *MLP {
	m := &MLP{}
	prev := in
	for _, h := range hidden {
		m.layers = append(m.layers, NewDense(rng, prev, h, act))
		prev = h
	}
	m.layers = append(m.layers, NewDense(rng, prev, out, Identity))
	return m
}

// Forward runs all layers. Rows of x are independent samples: evaluating a
// row-stacked batch produces, row for row, the identical results (and
// floating-point operation sequence) as evaluating each row alone, which
// the batched-equals-single differential tests assert. The returned matrix
// is scratch owned by the output layer.
func (m *MLP) Forward(x *Matrix) *Matrix { return m.ForwardTeam(x, nil) }

// ForwardTeam is Forward with each layer's rows spread over t's goroutines
// (nil: the calling goroutine only); the result is bit-identical to
// Forward's.
func (m *MLP) ForwardTeam(x *Matrix, t *Team) *Matrix {
	for _, l := range m.layers {
		x = l.forward(x, t)
	}
	return x
}

// Backward backpropagates and returns the input gradient (scratch owned by
// the first layer).
func (m *MLP) Backward(dY *Matrix) *Matrix { return m.backward(dY, nil, allInputs, nil) }

// BackwardRows backpropagates the rows of dY that rows lists (nil: all
// rows), spreading the work over t's goroutines (nil: the calling goroutine
// only). The parameter gradients receive exactly the additions that
// backpropagating the listed rows one at a time, in list order, would make;
// rows that are not listed contribute nothing.
//
// The input gradient is computed for the listed rows' first live columns
// only, and there only where the input is positive: the entries through
// which a ReLU that produced those inputs passes a gradient. The other
// entries of those columns are 0 — what the ReLU's backward would make of
// them for a finite gradient — and the columns from live on are not
// written.
func (m *MLP) BackwardRows(dY *Matrix, rows []int, live int, t *Team) *Matrix {
	return m.backward(dY, rows, live, t)
}

// backward backpropagates through every layer; live applies to the first
// layer's input gradient, the later layers' are computed in full.
func (m *MLP) backward(dY *Matrix, rows []int, live int, t *Team) *Matrix {
	for i := len(m.layers) - 1; i >= 0; i-- {
		in := allInputs
		if i == 0 {
			in = live
		}
		dY = m.layers[i].backward(dY, rows, in, t)
	}
	return dY
}

// Params lists all layer parameters.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
