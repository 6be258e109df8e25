// Package nn is a small, dependency-free neural-network library built for
// NPTSN: dense layers, graph convolutional layers (Eq. 4 of the paper),
// ReLU/Tanh activations, masked softmax policies and the Adam optimizer,
// all with explicit (manual) backpropagation. It substitutes for the
// PyTorch stack used by the original implementation; gradients are
// verified against finite differences in the tests.
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

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major) in a matrix; the slice is used directly.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// shapeEqual panics unless a and b have identical shapes.
func shapeEqual(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// AddInPlace adds b element-wise into m.
func (m *Matrix) AddInPlace(b *Matrix) {
	shapeEqual("add", m, b)
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies all elements by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// EnsureShape resizes m to rows×cols, reusing the existing backing array
// when it has enough capacity. Element values are unspecified afterwards —
// callers that need zeros must Zero() (the Into kernels do it themselves).
func (m *Matrix) EnsureShape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
}

// aliases reports whether two matrices share a backing array (same slice
// origin is enough for the scratch-reuse discipline: buffers are either
// identical or disjoint, never overlapping views).
func aliases(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// MatMulInto computes dst = a×b, resizing dst in place. dst must not alias
// a or b. The inner loop skips zero elements of a (the propagation operator
// Ŝ and the masked feature blocks are sparse); every forward matmul in the
// package funnels through this kernel, and each output row depends on its
// own row of a alone, so single-row and batched evaluations execute the
// identical floating-point operation sequence per output row.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul inner dims %d vs %d", a.Cols, b.Rows))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	dst.EnsureShape(a.Rows, b.Cols)
	matMulRows(dst, a, b, 0, a.Rows)
}

// matMulRows computes rows [lo, hi) of dst = a×b; dst is already shaped.
// Each output row accumulates the rows of b scaled by the nonzero elements
// of its row of a, in column order; four of them are added per pass over
// the output row, which changes how often the row is loaded, not the
// additions each element sees.
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	w := b.Cols
	brow := func(k int) []float64 { return b.Data[k*w : (k+1)*w] }
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*w : (i+1)*w]
		clear(orow)
		var ks [4]int
		m := 0
		for k, av := range arow {
			if av == 0 {
				continue
			}
			ks[m] = k
			if m++; m == 4 {
				addRows4(orow, arow[ks[0]], arow[ks[1]], arow[ks[2]], arow[ks[3]],
					brow(ks[0]), brow(ks[1]), brow(ks[2]), brow(ks[3]))
				m = 0
			}
		}
		for _, k := range ks[:m] {
			av, bk := arow[k], brow(k)
			for j := range orow {
				orow[j] += av * bk[j]
			}
		}
	}
}

// addRows4 adds a0·b0, a1·b1, a2·b2 and a3·b3 into o, in that order,
// element by element.
func addRows4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		v := o[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		o[j] = v
	}
}

// matMulATInto computes dst = aᵀ×b without materializing the transpose,
// walking a and b row by row: each nonzero a[k][i] adds a[k][i]·b[k] into
// row i of dst. Every element sums its terms in row order from +0, each
// product rounded before its addition — the sums matMulATAddRows forms —
// while reading a row-wise, which suits the narrow b of the graph trunks.
func matMulATInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matmul(aT,b) inner dims %d vs %d", a.Rows, b.Rows))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	w := b.Cols
	dst.EnsureShape(a.Cols, w)
	clear(dst.Data)
	for k := 0; k < a.Rows; k++ {
		bk := b.Data[k*w : (k+1)*w]
		for i, av := range a.Data[k*a.Cols : (k+1)*a.Cols] {
			if av == 0 {
				continue
			}
			orow := dst.Data[i*w : (i+1)*w]
			for j, bv := range bk {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// matMulATAddRows accumulates dst += aᵀ×b into rows [lo, hi) of dst, over
// the rows of a and b that rows lists (nil: all rows). Every element sums
// its terms one row at a time in list order, skipping zero elements of a,
// so accumulating a batch row by row — or in chunks of rows, or over any
// split of [lo, hi) — gives exactly the sum that adding each row's outer
// product aₖᵀbₖ in turn gives. The explicit float64 conversions keep each
// product rounded on its own, as it is when the outer product is formed
// before the addition, on targets that would otherwise fuse the
// multiply-add.
func matMulATAddRows(dst, a, b *Matrix, rows []int, lo, hi int) {
	n, w := rowCount(rows, a.Rows), b.Cols
	brow := func(k int) []float64 { return b.Data[k*w : (k+1)*w] }
	for i := lo; i < hi; i++ {
		orow := dst.Data[i*w : (i+1)*w]
		at := func(k int) float64 { return a.Data[k*a.Cols+i] }
		var ks [4]int
		m := 0
		for r := 0; r < n; r++ {
			k := rowAt(rows, r)
			if at(k) == 0 {
				continue
			}
			ks[m] = k
			if m++; m == 4 {
				addProducts4(orow, at(ks[0]), at(ks[1]), at(ks[2]), at(ks[3]),
					brow(ks[0]), brow(ks[1]), brow(ks[2]), brow(ks[3]))
				m = 0
			}
		}
		for _, k := range ks[:m] {
			av, bk := at(k), brow(k)
			for j := range orow {
				orow[j] += float64(av * bk[j])
			}
		}
	}
}

// addProducts4 is addRows4 with every product rounded before its addition.
func addProducts4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		v := o[j]
		v += float64(a0 * b0[j])
		v += float64(a1 * b1[j])
		v += float64(a2 * b2[j])
		v += float64(a3 * b3[j])
		o[j] = v
	}
}

// rowAt maps position r of a row list to a row index; a nil list is the
// identity (every row, in order).
func rowAt(rows []int, r int) int {
	if rows == nil {
		return r
	}
	return rows[r]
}

// rowCount is the length of a row list, n for the nil (all-rows) list.
func rowCount(rows []int, n int) int {
	if rows == nil {
		return n
	}
	return len(rows)
}

// matMulBTInto computes dst = a×bᵀ without materializing the transpose.
func matMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul(a,bT) inner dims %d vs %d", a.Cols, b.Cols))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	dst.EnsureShape(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		matMulBTRow(dst, a, b, i, b.Rows, nil)
	}
}

// matMulBTRow computes columns [0, n) of row i of dst = a×bᵀ as contiguous
// dot products of row i of a with rows of b, summed in column order from
// zero and skipping zero elements of a — the same terms in the same order
// as accumulating a's columns one at a time into the output row. Eight dot
// products share each pass over the row of a. With a gate, column j is
// computed only where gate[j] > 0 and set to 0 elsewhere.
func matMulBTRow(dst, a, b *Matrix, i, n int, gate []float64) {
	arow := a.Data[i*a.Cols : (i+1)*a.Cols]
	orow := dst.Data[i*b.Rows : i*b.Rows+n]
	brow := func(j int) []float64 { return b.Data[j*b.Cols : j*b.Cols+len(arow)] }
	var js [8]int
	m := 0
	for j := range orow {
		if gate != nil && !(gate[j] > 0) {
			orow[j] = 0
			continue
		}
		js[m] = j
		if m++; m < 8 {
			continue
		}
		m = 0
		b0, b1, b2, b3 := brow(js[0]), brow(js[1]), brow(js[2]), brow(js[3])
		b4, b5, b6, b7 := brow(js[4]), brow(js[5]), brow(js[6]), brow(js[7])
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, av := range arow {
			if av == 0 {
				continue
			}
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
			s4 += av * b4[k]
			s5 += av * b5[k]
			s6 += av * b6[k]
			s7 += av * b7[k]
		}
		orow[js[0]], orow[js[1]], orow[js[2]], orow[js[3]] = s0, s1, s2, s3
		orow[js[4]], orow[js[5]], orow[js[6]], orow[js[7]] = s4, s5, s6, s7
	}
	for _, j := range js[:m] {
		bj := brow(j)
		var s float64
		for k, av := range arow {
			if av == 0 {
				continue
			}
			s += av * bj[k]
		}
		orow[j] = s
	}
}

// XavierInit fills m with Glorot-uniform values for a layer with the given
// fan-in and fan-out, using the provided RNG for determinism.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Norm returns the Frobenius norm.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Param couples a parameter matrix with its gradient accumulator; the Adam
// optimizer walks a []Param.
type Param struct {
	Value *Matrix
	Grad  *Matrix
	Name  string
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(ps []Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// ScaleGrads multiplies all gradients by s (used for minibatch averaging
// and multi-worker gradient averaging).
func ScaleGrads(ps []Param, s float64) {
	for _, p := range ps {
		p.Grad.ScaleInPlace(s)
	}
}

// CopyParams copies parameter values from src into dst, synchronizing
// worker replicas after a global update.
func CopyParams(dst, src []Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: param list length %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		shapeEqual("copy", dst[i].Value, src[i].Value)
		copy(dst[i].Value.Data, src[i].Value.Data)
	}
}

// GlobalGradNorm returns the L2 norm across all gradients.
func GlobalGradNorm(ps []Param) float64 {
	var s float64
	for _, p := range ps {
		for _, v := range p.Grad.Data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ClipGrads rescales gradients so their global norm is at most maxNorm.
func ClipGrads(ps []Param, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	n := GlobalGradNorm(ps)
	if n > maxNorm {
		ScaleGrads(ps, maxNorm/n)
	}
}

// ExportWeights snapshots parameter values into plain float64 slices (one
// per parameter, row-major), suitable for JSON persistence.
func ExportWeights(ps []Param) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Value.Data...)
	}
	return out
}

// ImportWeights restores parameter values from an ExportWeights snapshot.
// The snapshot must come from an identically shaped network.
func ImportWeights(ps []Param, data [][]float64) error {
	if len(ps) != len(data) {
		return fmt.Errorf("nn: weight snapshot has %d tensors, network has %d", len(data), len(ps))
	}
	for i, p := range ps {
		if len(p.Value.Data) != len(data[i]) {
			return fmt.Errorf("nn: tensor %d has %d values, network expects %d", i, len(data[i]), len(p.Value.Data))
		}
		copy(p.Value.Data, data[i])
	}
	return nil
}
