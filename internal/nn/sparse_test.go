package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sparseFixture returns an r×c matrix whose entries are zero with
// probability zeroP — half of those zeros negative — and otherwise normal
// draws. Row zeroRow, when in range, is all zeros.
func sparseFixture(rng *rand.Rand, r, c int, zeroP float64, zeroRow int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		switch {
		case i/max(c, 1) == zeroRow:
			m.Data[i] = 0
		case rng.Float64() < zeroP:
			m.Data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// sameBits reports whether a and b hold the same float64 bit patterns, so
// that +0 and -0 differ.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSparseProductsMatchDenseKernels checks that the sparse products equal
// the zero-skipping dense kernels bit for bit: s×b against MatMulInto, and
// the nonempty-column rows of sᵀ×b against the accumulating kernel the
// dense weight gradients use (the rows mulTInto leaves out must be +0
// there). mulSparse must hold the entries of MatMulInto's product, and
// matMulATInto is checked against the accumulating kernel too. The operands
// cover random sparsity, -0 entries, all-zero rows and empty operators.
func TestSparseProductsMatchDenseKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		r, c, w int
		zeroP   float64
		zeroRow int
	}{
		{7, 9, 5, 0, -1},
		{7, 9, 5, 0.5, 3},
		{46, 94, 32, 0.97, 0},
		{46, 46, 2, 0.9, 45},
		{13, 6, 11, 1, -1}, // every entry a signed zero: an empty operator
		{0, 4, 3, 0.5, -1},
		{4, 0, 3, 0.5, -1},
		{5, 5, 0, 0.5, -1},
	}
	for _, tc := range cases {
		for trial := 0; trial < 5; trial++ {
			a := sparseFixture(rng, tc.r, tc.c, tc.zeroP, tc.zeroRow)
			s := NewSparse(a)

			b := sparseFixture(rng, tc.c, tc.w, 0.3, -1)
			want, got := new(Matrix), new(Matrix)
			MatMulInto(want, a, b)
			s.mulInto(got, b)
			if got.Rows != want.Rows || got.Cols != want.Cols || !sameBits(got.Data, want.Data) {
				t.Fatalf("%dx%d zeroP %v: sparse s×b differs from MatMulInto", tc.r, tc.c, tc.zeroP)
			}
			if !reflect.DeepEqual(s.mulSparse(b), NewSparse(want)) {
				t.Fatalf("%dx%d zeroP %v: mulSparse differs from the sparse form of MatMulInto", tc.r, tc.c, tc.zeroP)
			}

			bt := sparseFixture(rng, tc.r, tc.w, 0.3, -1)
			dense := NewMatrix(tc.c, tc.w)
			matMulATAddRows(dense, a, bt, nil, 0, tc.c)
			at := new(Matrix)
			matMulATInto(at, a, bt)
			if !sameBits(at.Data, dense.Data) {
				t.Fatalf("%dx%d zeroP %v: matMulATInto differs from the accumulating kernel", tc.r, tc.c, tc.zeroP)
			}
			s.mulTInto(got, bt)
			cols := s.cols
			if got.Rows != len(cols) || got.Cols != tc.w {
				t.Fatalf("mulTInto shape %dx%d, want %dx%d", got.Rows, got.Cols, len(cols), tc.w)
			}
			next := 0
			for i := 0; i < tc.c; i++ {
				row := dense.Data[i*tc.w : (i+1)*tc.w]
				if next < len(cols) && int(cols[next]) == i {
					if !sameBits(got.Data[next*tc.w:(next+1)*tc.w], row) {
						t.Fatalf("%dx%d zeroP %v: sparse sᵀ×b row %d differs", tc.r, tc.c, tc.zeroP, i)
					}
					next++
					continue
				}
				if !sameBits(row, make([]float64, tc.w)) {
					t.Fatalf("row %d of sᵀ×b left out but dense row is %v, not +0", i, row)
				}
			}
			nnz := 0
			for _, v := range a.Data {
				if v != 0 {
					nnz++
				}
			}
			if len(s.rowVal) != nnz {
				t.Fatalf("%d entries, want %d", len(s.rowVal), nnz)
			}
		}
	}
}

// TestGCNMatchesDenseReference checks a two-layer GCN, forward and
// backward, against the same layers written with the dense zero-skipping
// kernels over Ŝ and X: the outputs and the weight gradients must agree
// bit for bit.
func TestGCNMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, f, hid, emb = 12, 20, 8, 3
	adj := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	sHat := NormalizeAdjacency(adj)
	x := sparseFixture(rng, n, f, 0.9, 4)
	dY := sparseFixture(rng, n, emb, 0.2, -1)
	gcn := NewGCN(rng, 2, f, hid, emb)

	// Dense reference: H1 = ReLU(ŜXW0), Y = ReLU(ŜH1W1), and the
	// per-observation partials added into zeroed gradients.
	l0, l1 := gcn.layers[0], gcn.layers[1]
	sx, h1, sh1, y := new(Matrix), new(Matrix), new(Matrix), new(Matrix)
	MatMulInto(sx, sHat, x)
	MatMulInto(h1, sx, l0.W)
	ReLU.apply(h1.Data, h1.Data)
	MatMulInto(sh1, sHat, h1)
	MatMulInto(y, sh1, l1.W)
	ReLU.apply(y.Data, y.Data)
	dZ1, dZW, dH1, dZ0 := new(Matrix), new(Matrix), new(Matrix), new(Matrix)
	ReLU.backwardInto(dZ1, dY, y)
	g1 := NewMatrix(hid, emb)
	matMulATAddRows(g1, sh1, dZ1, nil, 0, hid)
	matMulBTInto(dZW, dZ1, l1.W)
	MatMulInto(dH1, sHat, dZW)
	ReLU.backwardInto(dZ0, dH1, h1)
	g0 := NewMatrix(f, hid)
	matMulATAddRows(g0, sx, dZ0, nil, 0, f)
	want0, want1 := NewMatrix(f, hid), NewMatrix(hid, emb)
	want0.AddInPlace(g0)
	want1.AddInPlace(g1)

	var a Activations
	got := gcn.Forward(GCNGraph(NewSparse(sHat), x), &a)
	if !sameBits(got.Data, y.Data) {
		t.Fatal("GCN forward differs from the dense reference")
	}
	ZeroGrads(gcn.Params())
	trunkBackward(gcn, dY, &a)
	if !sameBits(l0.gradW.Data, want0.Data) || !sameBits(l1.gradW.Data, want1.Data) {
		t.Fatal("GCN weight gradients differ from the dense reference")
	}
}

// TestLiveInputGradient checks the gated input gradient of an MLP's
// backward against the full one: on the first live columns it equals the
// full dZ·Wᵀ where the input is positive and is exactly 0 elsewhere, the
// columns from live on are left alone, and the parameter gradients do not
// change.
func TestLiveInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const in, rowsN, live = 40, 6, 27
	x := NewMatrix(rowsN, in)
	for i := range x.Data {
		switch rng.Intn(4) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = math.Copysign(0, -1)
		case 2:
			x.Data[i] = -rng.Float64()
		default:
			x.Data[i] = rng.Float64()
		}
	}
	dY := sparseFixture(rng, rowsN, 5, 0.2, 2)
	rows := []int{4, 0, 2, 5}
	grads := func(m *MLP) []float64 {
		var g []float64
		for _, p := range m.Params() {
			g = append(g, p.Grad.Data...)
		}
		return g
	}

	full := NewMLP(rand.New(rand.NewSource(7)), in, []int{16}, 5, Tanh)
	full.Forward(x)
	ZeroGrads(full.Params())
	want := full.backward(dY, rows, allInputs, nil).Clone()

	gated := NewMLP(rand.New(rand.NewSource(7)), in, []int{16}, 5, Tanh)
	gated.Forward(x)
	ZeroGrads(gated.Params())
	sentinel := gated.layers[0].dX
	sentinel.EnsureShape(rowsN, in)
	for i := range sentinel.Data {
		sentinel.Data[i] = 42
	}
	got := gated.BackwardRows(dY, rows, live, nil)

	if !sameBits(grads(gated), grads(full)) {
		t.Fatal("gating the input gradient changed the parameter gradients")
	}
	for _, k := range rows {
		for c := 0; c < in; c++ {
			g, w := got.At(k, c), want.At(k, c)
			switch {
			case c >= live:
				if g != 42 {
					t.Fatalf("row %d col %d past the live columns was written: %v", k, c, g)
				}
			case x.At(k, c) > 0:
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("row %d col %d: gated %v, full %v", k, c, g, w)
				}
			default:
				if math.Float64bits(g) != 0 {
					t.Fatalf("row %d col %d: input %v is not positive but the gradient is %v, want +0", k, c, x.At(k, c), g)
				}
			}
		}
	}
}
