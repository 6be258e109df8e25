package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// NormalizeAdjacency computes Ŝ = D^{-1/2}(A + I)D^{-1/2}, the symmetric
// renormalized propagation operator of Eq. 4 (Kipf & Welling), where D is
// the degree matrix of the self-connected adjacency A + I.
func NormalizeAdjacency(adj *Matrix) *Matrix {
	if adj.Rows != adj.Cols {
		panic(fmt.Sprintf("nn: adjacency must be square, got %dx%d", adj.Rows, adj.Cols))
	}
	n := adj.Rows
	s := adj.Clone()
	for i := 0; i < n; i++ {
		s.Data[i*n+i]++ // A + I
	}
	dInvSqrt := make([]float64, n)
	for i := 0; i < n; i++ {
		var deg float64
		for j := 0; j < n; j++ {
			deg += s.Data[i*n+j]
		}
		dInvSqrt[i] = 1 / math.Sqrt(deg) // deg >= 1 thanks to self loop
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Data[i*n+j] *= dInvSqrt[i] * dInvSqrt[j]
		}
	}
	return s
}

// GCNLayer implements one layer of Eq. 4: H' = σ(Ŝ H W). The propagation
// operator Ŝ varies per observation (the topology changes every step), so
// it is an input to Forward rather than a layer parameter.
//
// All intermediates live in layer-owned scratch matrices resized in place,
// so steady-state Forward/Backward allocate nothing. Returned matrices are
// valid until the layer's next Forward/Backward call.
type GCNLayer struct {
	In, Out int
	Act     Activation

	W     *Matrix
	gradW *Matrix

	lastS *Matrix // Ŝ (caller-owned)
	sh    *Matrix // Ŝ H scratch
	z     *Matrix // pre-activation scratch
	y     *Matrix // post-activation scratch

	dZ       *Matrix // backward scratch
	dZW      *Matrix // backward scratch: dZ Wᵀ
	dH       *Matrix // backward scratch: returned input gradient
	gradWTmp *Matrix // backward scratch: (ŜH)ᵀ dZ before accumulation
}

// NewGCNLayer builds a GCN layer with Xavier-initialized weights.
func NewGCNLayer(rng *rand.Rand, in, out int, act Activation) *GCNLayer {
	l := &GCNLayer{
		In: in, Out: out, Act: act,
		W: NewMatrix(in, out), gradW: NewMatrix(in, out),
		sh: new(Matrix), z: new(Matrix), y: new(Matrix),
		dZ: new(Matrix), dZW: new(Matrix), dH: new(Matrix), gradWTmp: new(Matrix),
	}
	l.W.XavierInit(rng, in, out)
	return l
}

// Forward computes σ(Ŝ H W) and caches intermediates for Backward. The
// returned matrix is layer-owned scratch.
func (l *GCNLayer) Forward(sHat, h *Matrix) *Matrix {
	if h.Cols != l.In {
		panic(fmt.Sprintf("nn: gcn input features %d, want %d", h.Cols, l.In))
	}
	MatMulInto(l.sh, sHat, h)
	MatMulInto(l.z, l.sh, l.W)
	l.lastS = sHat
	l.Act.applyInto(l.y, l.z)
	return l.y
}

// Backward accumulates dW and returns dH, the gradient with respect to the
// input node features. Ŝ is symmetric, so dH = Ŝ (dZ Wᵀ).
func (l *GCNLayer) Backward(dY *Matrix) *Matrix {
	dH := l.backwardPartial(dY, true, l.gradWTmp)
	l.gradW.AddInPlace(l.gradWTmp)
	return dH
}

// backwardPartial computes this observation's weight-gradient partial
// (ŜH)ᵀdZ into gradW — not adding it to the layer's accumulator — and dH
// when input is set (nil otherwise).
func (l *GCNLayer) backwardPartial(dY *Matrix, input bool, gradW *Matrix) *Matrix {
	if l.lastS == nil {
		panic("nn: gcn backward before forward")
	}
	l.Act.backwardInto(l.dZ, dY, l.y)
	matMulATInto(gradW, l.sh, l.dZ)
	if !input {
		return nil
	}
	matMulBTInto(l.dZW, l.dZ, l.W)
	MatMulInto(l.dH, l.lastS, l.dZW)
	return l.dH
}

// replica returns a layer sharing l's weight, with its own scratch and no
// gradient accumulator.
func (l *GCNLayer) replica() *GCNLayer {
	return &GCNLayer{
		In: l.In, Out: l.Out, Act: l.Act, W: l.W,
		sh: new(Matrix), z: new(Matrix), y: new(Matrix),
		dZ: new(Matrix), dZW: new(Matrix), dH: new(Matrix),
	}
}

// Params exposes the layer weight to the optimizer.
func (l *GCNLayer) Params() []Param {
	return []Param{{Value: l.W, Grad: l.gradW, Name: "gcn.W"}}
}

// GCN is a stack of GCN layers over a per-observation propagation operator.
// A zero-layer GCN is the identity on the node features (the GCN-0 setup of
// the sensitivity test, Fig. 5a).
type GCN struct {
	layers []*GCNLayer
}

// NewGCN builds `numLayers` GCN layers mapping the input feature dimension
// to embedDim node features, with hiddenDim features in between. ReLU is
// used on hidden layers and on the final layer, matching the standard
// Kipf-Welling construction.
func NewGCN(rng *rand.Rand, numLayers, inFeatures, hiddenDim, embedDim int) *GCN {
	g := &GCN{}
	if numLayers <= 0 {
		return g
	}
	prev := inFeatures
	for i := 0; i < numLayers; i++ {
		out := hiddenDim
		if i == numLayers-1 {
			out = embedDim
		}
		g.layers = append(g.layers, NewGCNLayer(rng, prev, out, ReLU))
		prev = out
	}
	return g
}

// NumLayers returns the number of GCN layers.
func (g *GCN) NumLayers() int { return len(g.layers) }

// OutFeatures returns the per-node output feature dimension for the given
// input feature dimension (identity when the GCN has no layers).
func (g *GCN) OutFeatures(inFeatures int) int {
	if len(g.layers) == 0 {
		return inFeatures
	}
	return g.layers[len(g.layers)-1].Out
}

// Forward runs all layers over the propagation operator sHat. The returned
// matrix is scratch owned by the last layer (or the input itself for a
// zero-layer GCN).
func (g *GCN) Forward(sHat, h *Matrix) *Matrix {
	for _, l := range g.layers {
		h = l.Forward(sHat, h)
	}
	return h
}

// Backward backpropagates through all layers, accumulates the weight
// gradients and returns the gradient with respect to the input features.
func (g *GCN) Backward(dY *Matrix) *Matrix {
	for i := len(g.layers) - 1; i >= 0; i-- {
		dY = g.layers[i].Backward(dY)
	}
	return dY
}

// Replica implements Trunk.
func (g *GCN) Replica() Trunk {
	r := &GCN{}
	for _, l := range g.layers {
		r.layers = append(r.layers, l.replica())
	}
	return r
}

// BackwardPartials implements Trunk.
func (g *GCN) BackwardPartials(dY *Matrix, p *Partials) {
	m := p.mats(len(g.layers))
	for i := len(g.layers) - 1; i >= 0; i-- {
		dY = g.layers[i].backwardPartial(dY, i > 0, &m[i])
	}
}

// AddPartials implements Trunk.
func (g *GCN) AddPartials(p *Partials) {
	for i, l := range g.layers {
		l.gradW.AddInPlace(&p.m[i])
	}
}

// Params lists all layer weights.
func (g *GCN) Params() []Param {
	var ps []Param
	for _, l := range g.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
