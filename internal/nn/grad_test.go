package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad computes the central finite-difference gradient of loss()
// with respect to every element of the parameter matrices.
func numericalGrad(ps []Param, loss func() float64) [][]float64 {
	const eps = 1e-6
	grads := make([][]float64, len(ps))
	for i, p := range ps {
		grads[i] = make([]float64, len(p.Value.Data))
		for j := range p.Value.Data {
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + eps
			up := loss()
			p.Value.Data[j] = orig - eps
			down := loss()
			p.Value.Data[j] = orig
			grads[i][j] = (up - down) / (2 * eps)
		}
	}
	return grads
}

func assertGradsClose(t *testing.T, ps []Param, numeric [][]float64, tol float64) {
	t.Helper()
	for i, p := range ps {
		for j := range p.Grad.Data {
			a, n := p.Grad.Data[j], numeric[i][j]
			scale := math.Max(1, math.Max(math.Abs(a), math.Abs(n)))
			if math.Abs(a-n)/scale > tol {
				t.Fatalf("param %d (%s) elem %d: analytic %v vs numeric %v", i, p.Name, j, a, n)
			}
		}
	}
}

func TestDenseGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewDense(rng, 4, 3, Tanh)
	x := NewMatrix(2, 4)
	x.XavierInit(rng, 4, 3)
	// Loss: sum of squares of outputs.
	loss := func() float64 {
		y := layer.Forward(x)
		var s float64
		for _, v := range y.Data {
			s += v * v
		}
		return s
	}
	numeric := numericalGrad(layer.Params(), loss)

	ZeroGrads(layer.Params())
	y := layer.Forward(x)
	dY := y.Clone()
	dY.ScaleInPlace(2)
	layer.Backward(dY)
	assertGradsClose(t, layer.Params(), numeric, 1e-5)
}

func TestDenseInputGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewDense(rng, 3, 2, ReLU)
	x := FromSlice(1, 3, []float64{0.3, -0.7, 1.2})
	loss := func() float64 {
		y := layer.Forward(x)
		var s float64
		for _, v := range y.Data {
			s += v * v
		}
		return s
	}
	const eps = 1e-6
	numeric := make([]float64, 3)
	for j := range x.Data {
		orig := x.Data[j]
		x.Data[j] = orig + eps
		up := loss()
		x.Data[j] = orig - eps
		down := loss()
		x.Data[j] = orig
		numeric[j] = (up - down) / (2 * eps)
	}
	ZeroGrads(layer.Params())
	y := layer.Forward(x)
	dY := y.Clone()
	dY.ScaleInPlace(2)
	dX := layer.Backward(dY)
	for j := range numeric {
		if math.Abs(dX.Data[j]-numeric[j]) > 1e-5 {
			t.Fatalf("input grad %d: analytic %v vs numeric %v", j, dX.Data[j], numeric[j])
		}
	}
}

func TestMLPGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mlp := NewMLP(rng, 5, []int{8, 8}, 3, Tanh)
	x := NewMatrix(1, 5)
	x.XavierInit(rng, 5, 3)
	loss := func() float64 {
		y := mlp.Forward(x)
		var s float64
		for i, v := range y.Data {
			s += v * float64(i+1) // asymmetric loss
		}
		return s
	}
	numeric := numericalGrad(mlp.Params(), loss)
	ZeroGrads(mlp.Params())
	y := mlp.Forward(x)
	dY := NewMatrix(y.Rows, y.Cols)
	for i := range dY.Data {
		dY.Data[i] = float64(i + 1)
	}
	mlp.Backward(dY)
	assertGradsClose(t, mlp.Params(), numeric, 1e-5)
}

func TestGCNGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gcn := NewGCN(rng, 2, 4, 6, 2)
	// Random 5-node graph.
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
	gr := GCNGraph(NewSparse(sHat), h)
	var a Activations
	loss := func() float64 {
		y := gcn.Forward(gr, &a)
		var s float64
		for i, v := range y.Data {
			s += v * v * float64(i%3+1)
		}
		return s
	}
	numeric := numericalGrad(gcn.Params(), loss)
	ZeroGrads(gcn.Params())
	y := gcn.Forward(gr, &a)
	dY := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		dY.Data[i] = 2 * v * float64(i%3+1)
	}
	trunkBackward(gcn, dY, &a)
	// ReLU kinks make finite differences slightly noisy; modest tolerance.
	assertGradsClose(t, gcn.Params(), numeric, 1e-4)
}

// TestMLPBatchedForwardMatchesSingleBitForBit is the property the planner's
// batched exploration relies on: because every matmul kernel computes output
// rows independently, forwarding a row-stacked batch produces, per row, the
// exact bits of a single-row forward.
func TestMLPBatchedForwardMatchesSingleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mlp := NewMLP(rng, 5, []int{8, 8}, 3, Tanh)
	const batch = 4
	xs := NewMatrix(batch, 5)
	xs.XavierInit(rng, 5, 3)

	// Single-row forwards, copied out of the borrowed scratch.
	single := make([][]float64, batch)
	row := NewMatrix(1, 5)
	for i := 0; i < batch; i++ {
		copy(row.Data, xs.Data[i*5:(i+1)*5])
		single[i] = append([]float64(nil), mlp.Forward(row).Data...)
	}

	batched := mlp.Forward(xs)
	for i := 0; i < batch; i++ {
		for j := 0; j < 3; j++ {
			got := batched.At(i, j)
			want := single[i][j]
			if got != want {
				t.Fatalf("row %d col %d: batched %v != single %v (must be bit-identical)", i, j, got, want)
			}
		}
	}
}

// TestMLPBatchedBackwardMatchesFiniteDifference checks the in-place
// backward pass on a multi-row (batched) input against finite differences.
func TestMLPBatchedBackwardMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mlp := NewMLP(rng, 4, []int{6}, 2, ReLU)
	x := NewMatrix(3, 4)
	x.XavierInit(rng, 4, 2)
	loss := func() float64 {
		y := mlp.Forward(x)
		var s float64
		for i, v := range y.Data {
			s += v * v * float64(i%2+1)
		}
		return s
	}
	numeric := numericalGrad(mlp.Params(), loss)
	ZeroGrads(mlp.Params())
	y := mlp.Forward(x)
	dY := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		dY.Data[i] = 2 * v * float64(i%2+1)
	}
	mlp.Backward(dY)
	assertGradsClose(t, mlp.Params(), numeric, 1e-4)
}

// TestScratchReuseIsBitStable verifies that the layer-owned scratch does not
// leak state between calls: repeating the same forward/backward produces
// exactly the same outputs and gradient accumulations.
func TestScratchReuseIsBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gcn := NewGCN(rng, 2, 4, 6, 2)
	adj := NewMatrix(5, 5)
	for i := 0; i < 4; i++ {
		adj.Set(i, i+1, 1)
		adj.Set(i+1, i, 1)
	}
	sHat := NormalizeAdjacency(adj)
	h := NewMatrix(5, 4)
	h.XavierInit(rng, 4, 2)
	dY := NewMatrix(5, 2)
	for i := range dY.Data {
		dY.Data[i] = rng.NormFloat64()
	}

	gr := GCNGraph(NewSparse(sHat), h)
	var a Activations
	snap := func() ([]float64, [][]float64) {
		ZeroGrads(gcn.Params())
		y := append([]float64(nil), gcn.Forward(gr, &a).Data...)
		trunkBackward(gcn, dY, &a)
		var gs [][]float64
		for _, p := range gcn.Params() {
			gs = append(gs, append([]float64(nil), p.Grad.Data...))
		}
		return y, gs
	}
	y1, g1 := snap()
	y2, g2 := snap()
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("output %d changed across identical calls: %v vs %v", i, y1[i], y2[i])
		}
	}
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatalf("grad %d/%d changed across identical calls: %v vs %v", i, j, g1[i][j], g2[i][j])
			}
		}
	}
}

func TestGCNZeroLayersIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gcn := NewGCN(rng, 0, 4, 6, 2)
	if gcn.NumLayers() != 0 {
		t.Fatal("expected 0 layers")
	}
	if gcn.OutFeatures(4) != 4 {
		t.Fatal("identity GCN must preserve feature dim")
	}
	h := FromSlice(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	var a Activations
	y := gcn.Forward(Graph{X: h}, &a)
	for i := range h.Data {
		if y.Data[i] != h.Data[i] {
			t.Fatal("identity GCN changed features")
		}
	}
	trunkBackward(gcn, y.Clone(), &a) // nothing to backpropagate into
	if gcn.Params() != nil {
		t.Fatal("identity GCN has no params")
	}
}

func TestNormalizeAdjacency(t *testing.T) {
	// Two connected nodes: A+I = [[1,1],[1,1]], D = diag(2,2),
	// Ŝ = all entries 1/2.
	adj := FromSlice(2, 2, []float64{0, 1, 1, 0})
	s := NormalizeAdjacency(adj)
	for _, v := range s.Data {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("Ŝ = %v, want all 0.5", s.Data)
		}
	}
	// Isolated node: self loop only, Ŝ = 1.
	s = NormalizeAdjacency(NewMatrix(1, 1))
	if s.Data[0] != 1 {
		t.Fatalf("isolated Ŝ = %v, want 1", s.Data[0])
	}
	// Symmetry on a random graph.
	rng := rand.New(rand.NewSource(3))
	adj = NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if rng.Intn(2) == 0 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	s = NormalizeAdjacency(adj)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(s.At(i, j)-s.At(j, i)) > 1e-12 {
				t.Fatal("Ŝ not symmetric")
			}
		}
	}
}

// trunkBackward is a trunk's single-observation backward: backpropagate dY
// through the forward that filled a and add the contributions to the
// trunk's gradients.
func trunkBackward(tr Trunk, dY *Matrix, a *Activations) {
	var p Partials
	tr.Backward(dY, a, &p)
	tr.AddPartials(&p)
}
