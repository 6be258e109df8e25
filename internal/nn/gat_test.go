package nn

import (
	"math"
	"math/rand"
	"testing"
)

// gatFixture returns a two-layer GAT and a random five-node graph, with the
// dense form of Ŝ, whose nonzero pattern the GAT attends over.
func gatFixture(t testing.TB) (*GAT, Graph, *Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	gat := NewGAT(rng, 2, 4, 6, 2)
	adj := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if rng.Intn(2) == 0 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	sHat := NormalizeAdjacency(adj)
	h := NewMatrix(5, 4)
	h.XavierInit(rng, 4, 2)
	return gat, Graph{X: h, S: NewSparse(sHat)}, sHat
}

func TestGATForwardShapesAndAttentionRows(t *testing.T) {
	gat, g, mask := gatFixture(t)
	var acts Activations
	y := gat.Forward(g, &acts)
	if y.Rows != 5 || y.Cols != 2 {
		t.Fatalf("output %dx%d, want 5x2", y.Rows, y.Cols)
	}
	// Each layer's attention rows must sum to 1 over the mask.
	for l := range gat.layers {
		alpha := gatLayerActs(&acts, l).alpha
		for i := 0; i < 5; i++ {
			var sum float64
			for j := 0; j < 5; j++ {
				a := alpha.At(i, j)
				if mask.At(i, j) == 0 && a != 0 {
					t.Fatalf("attention leaked outside the mask at (%d,%d)", i, j)
				}
				if a < 0 {
					t.Fatalf("negative attention at (%d,%d)", i, j)
				}
				sum += a
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("attention row %d sums to %v", i, sum)
			}
		}
	}
}

func TestGATGradientMatchesFiniteDifference(t *testing.T) {
	gat, g, _ := gatFixture(t)
	var a Activations
	loss := func() float64 {
		y := gat.Forward(g, &a)
		var s float64
		for i, v := range y.Data {
			s += v * v * float64(i%3+1)
		}
		return s
	}
	numeric := numericalGrad(gat.Params(), loss)
	ZeroGrads(gat.Params())
	y := gat.Forward(g, &a)
	dY := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		dY.Data[i] = 2 * v * float64(i%3+1)
	}
	trunkBackward(gat, dY, &a)
	// ReLU/LeakyReLU kinks: modest tolerance.
	assertGradsClose(t, gat.Params(), numeric, 1e-4)
}

// TestGATInputGradientMatchesFiniteDifference checks the input gradient a
// GAT layer hands the layer below it, against finite differences over the
// layer's input.
func TestGATInputGradientMatchesFiniteDifference(t *testing.T) {
	gat, g, _ := gatFixture(t)
	l := gat.layers[1]
	h := NewMatrix(5, l.In)
	h.XavierInit(rand.New(rand.NewSource(5)), l.In, l.Out)
	var a Activations
	a.m, a.v = grow(a.m, 3, a.v, 2)
	la := gatLayerActs(&a, 0)
	loss := func() float64 {
		y := l.forward(g.S, h, la)
		var s float64
		for i, v := range y.Data {
			s += v * float64(i+1)
		}
		return s
	}
	y := l.forward(g.S, h, la)
	dY := NewMatrix(y.Rows, y.Cols)
	for i := range dY.Data {
		dY.Data[i] = float64(i + 1)
	}
	dH := l.backward(dY, g.S, h, la, true, new(Matrix)).Clone()
	const eps = 1e-6
	for j := range h.Data {
		orig := h.Data[j]
		h.Data[j] = orig + eps
		up := loss()
		h.Data[j] = orig - eps
		down := loss()
		h.Data[j] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(dH.Data[j]-numeric) > 1e-4*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("dH[%d] = %v, numeric %v", j, dH.Data[j], numeric)
		}
	}
}

func TestGATZeroLayersIdentity(t *testing.T) {
	gat := NewGAT(rand.New(rand.NewSource(1)), 0, 3, 4, 2)
	if gat.NumLayers() != 0 || gat.OutFeatures(3) != 3 {
		t.Fatal("zero-layer GAT should be identity-shaped")
	}
	h := FromSlice(1, 3, []float64{1, 2, 3})
	y := gat.Forward(Graph{X: h, S: NewSparse(NormalizeAdjacency(NewMatrix(1, 1)))}, new(Activations))
	for i := range h.Data {
		if y.Data[i] != h.Data[i] {
			t.Fatal("identity violated")
		}
	}
	if gat.Params() != nil {
		t.Fatal("identity GAT has no params")
	}
}

func TestGATDeterministic(t *testing.T) {
	gat, g, _ := gatFixture(t)
	var a Activations
	y1 := gat.Forward(g, &a).Clone()
	y2 := gat.Forward(g, &a)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("GAT forward not deterministic")
		}
	}
}
