package nn

import "fmt"

// Sparse is a matrix kept as its nonzero entries — those that compare
// unequal to 0, so both signed zeros are dropped and NaN is kept — listed
// row by row, each row's entries by column. Its products make exactly the
// additions the zero-skipping dense kernels make for the dense form, in
// the same order, so they are bit-identical to them.
//
// A Sparse is immutable once built and safe for concurrent use.
type Sparse struct {
	Rows, Cols int

	rowStart []int32 // row i's entries are rowCol/rowVal[rowStart[i]:rowStart[i+1]]
	rowCol   []int32
	rowVal   []float64

	cols []int32 // the nonempty columns, ascending
	slot []int32 // column j's index in cols, or -1 when it is empty
}

// NewSparse returns the nonzero entries of m.
func NewSparse(m *Matrix) *Sparse {
	return newSparse(m.Rows, m.Cols, func(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] })
}

// newSparse returns the nonzero entries of the rows×cols matrix whose row i
// row(i) returns; the row is read before the next call. It reads every row
// twice, counting the entries and then storing them, so that the lists
// are allocated once at their final size: observations are built at every
// environment step.
func newSparse(rows, cols int, row func(i int) []float64) *Sparse {
	s := &Sparse{Rows: rows, Cols: cols, slot: make([]int32, cols)}
	nnz, nonempty := 0, 0
	for i := 0; i < rows; i++ {
		for j, v := range row(i) {
			if v != 0 {
				if s.slot[j] == 0 {
					s.slot[j] = 1
					nonempty++
				}
				nnz++
			}
		}
	}
	ints := make([]int32, rows+1+nnz+nonempty)
	s.rowStart, s.rowCol, s.cols = ints[:rows+1], ints[rows+1:rows+1+nnz], ints[rows+1+nnz:]
	s.rowVal = make([]float64, nnz)
	t := int32(0)
	for j, used := range s.slot {
		s.slot[j] = -1
		if used != 0 {
			s.slot[j], s.cols[t] = t, int32(j)
			t++
		}
	}
	e := int32(0)
	for i := 0; i < rows; i++ {
		for j, v := range row(i) {
			if v != 0 {
				s.rowCol[e], s.rowVal[e] = int32(j), v
				e++
			}
		}
		s.rowStart[i+1] = e
	}
	return s
}

// mulSparse returns s×b in sparse form; its entries are the values mulInto
// computes.
func (s *Sparse) mulSparse(b *Matrix) *Sparse {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("nn: sparse matmul inner dims %d vs %d", s.Cols, b.Rows))
	}
	row := make([]float64, b.Cols)
	return newSparse(s.Rows, b.Cols, func(i int) []float64 {
		s.mulRow(row, i, b)
		return row
	})
}

// rowCols returns the columns of row i's entries, ascending.
func (s *Sparse) rowCols(i int) []int32 { return s.rowCol[s.rowStart[i]:s.rowStart[i+1]] }

// mulInto computes dst = s×b, resizing dst in place; dst must not alias b.
// Each output row accumulates the rows of b scaled by its row's entries in
// column order, four per pass, as MatMulInto does for the dense form.
func (s *Sparse) mulInto(dst, b *Matrix) {
	if s.Cols != b.Rows {
		panic(fmt.Sprintf("nn: sparse matmul inner dims %d vs %d", s.Cols, b.Rows))
	}
	if aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	w := b.Cols
	dst.EnsureShape(s.Rows, w)
	for i := 0; i < s.Rows; i++ {
		s.mulRow(dst.Data[i*w:(i+1)*w], i, b)
	}
}

// mulRow computes row i of s×b into orow.
func (s *Sparse) mulRow(orow []float64, i int, b *Matrix) {
	w := b.Cols
	brow := func(k int32) []float64 { return b.Data[int(k)*w : int(k+1)*w] }
	clear(orow)
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	ks, vs := s.rowCol[lo:hi], s.rowVal[lo:hi]
	e := 0
	for ; e+4 <= len(ks); e += 4 {
		addRows4(orow, vs[e], vs[e+1], vs[e+2], vs[e+3],
			brow(ks[e]), brow(ks[e+1]), brow(ks[e+2]), brow(ks[e+3]))
	}
	for ; e < len(ks); e++ {
		av, bk := vs[e], brow(ks[e])
		for j := range orow {
			orow[j] += av * bk[j]
		}
	}
}

// mulTInto computes the rows of sᵀ×b that belong to s's nonempty columns:
// row t of dst, resized to len(s.cols)×b.Cols, is row s.cols[t] of sᵀ×b. The rows it leaves out are all +0 in the
// dense product. It walks s and b row by row, adding each entry's
// product with its row of b into its column's row of dst, so every
// element sums its terms in row order from +0, each product rounded
// before its addition — the sums matMulATAddRows forms for the dense
// form.
func (s *Sparse) mulTInto(dst, b *Matrix) {
	if s.Rows != b.Rows {
		panic(fmt.Sprintf("nn: sparse matmul(aT,b) inner dims %d vs %d", s.Rows, b.Rows))
	}
	if aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	w := b.Cols
	// The row count varies between observations: size the buffer for
	// every column once rather than regrowing it.
	if cap(dst.Data) < len(s.cols)*w {
		dst.Data = make([]float64, 0, s.Cols*w)
	}
	dst.EnsureShape(len(s.cols), w)
	clear(dst.Data)
	for k := 0; k < s.Rows; k++ {
		bk := b.Data[k*w : (k+1)*w]
		for e := s.rowStart[k]; e < s.rowStart[k+1]; e++ {
			av, t := s.rowVal[e], int(s.slot[s.rowCol[e]])
			orow := dst.Data[t*w : (t+1)*w]
			for j, bv := range bk {
				orow[j] += float64(av * bv)
			}
		}
	}
}
