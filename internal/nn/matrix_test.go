package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Fatal("At/Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
	m.Zero()
	if m.At(0, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := new(Matrix)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	if c.Rows != 2 || c.Cols != 2 {
		t.Fatalf("MatMulInto shape %dx%d, want 2x2", c.Rows, c.Cols)
	}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMulInto = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulInto(new(Matrix), NewMatrix(2, 3), NewMatrix(2, 3))
}

// transposed returns mᵀ, the naive reference for the transposed kernels.
func transposed(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// TestTranspose checks the kernels that multiply by a transpose without
// materializing it against MatMulInto over an explicit transpose, bit for
// bit, including the row-subset accumulating form the dense layers use.
func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rnd := func(r, c int) *Matrix {
		m := NewMatrix(r, c)
		for i := range m.Data {
			if rng.Intn(4) > 0 { // keep some exact zeros for the skip paths
				m.Data[i] = rng.NormFloat64()
			}
		}
		return m
	}
	a, b := rnd(5, 3), rnd(5, 4)
	got, want := new(Matrix), new(Matrix)
	matMulATInto(got, a, b)
	MatMulInto(want, transposed(a), b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matMulATInto = %v, want %v", got.Data, want.Data)
	}
	c := rnd(6, 3)
	matMulBTInto(got, c, a)
	MatMulInto(want, c, transposed(a))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("matMulBTInto = %v, want %v", got.Data, want.Data)
	}

	// dst += aᵀb over rows {0, 2, 4}, in three row ranges of dst, equals
	// adding the three rows' outer products one at a time.
	rows := []int{0, 2, 4}
	acc := rnd(3, 4)
	ref := acc.Clone()
	for _, lohi := range [][2]int{{0, 1}, {1, 3}} {
		matMulATAddRows(acc, a, b, rows, lohi[0], lohi[1])
	}
	for _, k := range rows {
		outer := new(Matrix)
		matMulATInto(outer, FromSlice(1, 3, a.Data[k*3:k*3+3]), FromSlice(1, 4, b.Data[k*4:k*4+4]))
		ref.AddInPlace(outer)
	}
	for i := range ref.Data {
		if acc.Data[i] != ref.Data[i] {
			t.Fatalf("matMulATAddRows = %v, want %v", acc.Data, ref.Data)
		}
	}
}

func TestAddScaleInPlace(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	a.AddInPlace(b)
	if a.Data[1] != 7 {
		t.Fatalf("AddInPlace = %v", a.Data)
	}
	a.ScaleInPlace(2)
	if a.Data[0] != 10 {
		t.Fatalf("ScaleInPlace = %v", a.Data)
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(50, 50)
	m.XavierInit(rng, 50, 50)
	limit := math.Sqrt(6.0 / 100.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %v outside Xavier limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 2000 {
		t.Fatal("init looks degenerate")
	}
}

func TestParamHelpers(t *testing.T) {
	mk := func() []Param {
		return []Param{
			{Value: FromSlice(1, 2, []float64{1, 2}), Grad: FromSlice(1, 2, []float64{3, 4})},
		}
	}
	ps := mk()
	ZeroGrads(ps)
	if ps[0].Grad.Data[0] != 0 {
		t.Fatal("ZeroGrads failed")
	}
	ps = mk()
	ScaleGrads(ps, 0.5)
	if ps[0].Grad.Data[1] != 2 {
		t.Fatal("ScaleGrads failed")
	}
	dst := mk()
	CopyParams(dst, []Param{{Value: FromSlice(1, 2, []float64{9, 9}), Grad: NewMatrix(1, 2)}})
	if dst[0].Value.Data[0] != 9 {
		t.Fatal("CopyParams failed")
	}
	if n := GlobalGradNorm(mk()); math.Abs(n-5) > 1e-12 {
		t.Fatalf("GlobalGradNorm = %v, want 5", n)
	}
	ps = mk()
	ClipGrads(ps, 1)
	if n := GlobalGradNorm(ps); math.Abs(n-1) > 1e-12 {
		t.Fatalf("clipped norm = %v, want 1", n)
	}
	ps = mk()
	ClipGrads(ps, 100) // below threshold: unchanged
	if ps[0].Grad.Data[0] != 3 {
		t.Fatal("ClipGrads should not scale below the threshold")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 with Adam.
	w := FromSlice(1, 3, []float64{5, -3, 2})
	g := NewMatrix(1, 3)
	target := []float64{1, 2, 3}
	ps := []Param{{Value: w, Grad: g}}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		ZeroGrads(ps)
		for j := range target {
			g.Data[j] = 2 * (w.Data[j] - target[j])
		}
		opt.Step(ps)
	}
	for j := range target {
		if math.Abs(w.Data[j]-target[j]) > 1e-3 {
			t.Fatalf("Adam did not converge: w=%v", w.Data)
		}
	}
	if opt.Steps() != 500 {
		t.Fatalf("Steps = %d", opt.Steps())
	}
}
