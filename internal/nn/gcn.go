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
// it comes with the observation's Graph rather than being a layer
// parameter. The activations live in the caller's Activations and the
// backward scratch in the layer, resized in place, so steady-state
// Forward/Backward allocate nothing.
type GCNLayer struct {
	In, Out int
	Act     Activation

	W     *Matrix
	gradW *Matrix

	dZ  *Matrix // backward scratch: dY ⊙ σ'
	dZW *Matrix // backward scratch: dZ Wᵀ
	dH  *Matrix // backward scratch: the input gradient Ŝ dZ Wᵀ
}

// NewGCNLayer builds a GCN layer with Xavier-initialized weights.
func NewGCNLayer(rng *rand.Rand, in, out int, act Activation) *GCNLayer {
	l := &GCNLayer{
		In: in, Out: out, Act: act,
		W: NewMatrix(in, out), gradW: NewMatrix(in, out),
		dZ: new(Matrix), dZW: new(Matrix), dH: new(Matrix),
	}
	l.W.XavierInit(rng, in, out)
	return l
}

// forward computes y = σ(ŜHW). The first layer reads its propagated input
// ŜX from the graph; a later layer propagates its input h into sh, which
// its backward reads. The pre-activation is formed in y and activated in
// place.
func (l *GCNLayer) forward(g *Graph, first bool, h, sh, y *Matrix) *Matrix {
	if h.Cols != l.In {
		panic(fmt.Sprintf("nn: gcn input features %d, want %d", h.Cols, l.In))
	}
	if first {
		g.SX.mulInto(y, l.W)
	} else {
		g.S.mulInto(sh, h)
		MatMulInto(y, sh, l.W)
	}
	l.Act.apply(y.Data, y.Data)
	return y
}

// backward computes this observation's weight-gradient partial (ŜH)ᵀdZ
// into gradW — not adding it to the layer's accumulator — and returns the
// input gradient dH = Ŝ (dZ Wᵀ) (Ŝ is symmetric), except for the first
// layer, whose partial holds only the rows of ŜX's nonempty columns (the
// others are +0) and whose input gradient nobody reads.
func (l *GCNLayer) backward(dY *Matrix, g *Graph, first bool, sh, y, gradW *Matrix) *Matrix {
	l.Act.backwardInto(l.dZ, dY, y)
	if first {
		g.SX.mulTInto(gradW, l.dZ)
		return nil
	}
	matMulATInto(gradW, sh, l.dZ)
	matMulBTInto(l.dZW, l.dZ, l.W)
	g.S.mulInto(l.dH, l.dZW)
	return l.dH
}

// replica returns a layer sharing l's weight, with its own scratch and no
// gradient accumulator.
func (l *GCNLayer) replica() *GCNLayer {
	return &GCNLayer{
		In: l.In, Out: l.Out, Act: l.Act, W: l.W,
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

// Forward implements Trunk. Per layer, a keeps the propagated input ŜH
// (not for the first layer, whose ŜX belongs to the graph) and the output.
func (g *GCN) Forward(gr Graph, a *Activations) *Matrix {
	a.g = gr
	h := gr.X
	a.m, a.v = grow(a.m, 2*len(g.layers), a.v, 0)
	for i, l := range g.layers {
		h = l.forward(&a.g, i == 0, h, &a.m[2*i], &a.m[2*i+1])
	}
	return h
}

// Backward implements Trunk.
func (g *GCN) Backward(dY *Matrix, a *Activations, p *Partials) {
	p.m, p.v = grow(p.m, len(g.layers), p.v, 0)
	for i := len(g.layers) - 1; i >= 0; i-- {
		dY = g.layers[i].backward(dY, &a.g, i == 0, &a.m[2*i], &a.m[2*i+1], &p.m[i])
	}
	if len(g.layers) > 0 {
		p.rows = a.g.SX.cols
	}
}

// Replica implements Trunk.
func (g *GCN) Replica() Trunk {
	r := &GCN{}
	for _, l := range g.layers {
		r.layers = append(r.layers, l.replica())
	}
	return r
}

// AddPartials implements Trunk. The first layer's partial holds only the
// rows p.rows lists; the rows it leaves out are +0, and adding +0 changes
// no gradient element (a sum started from +0 is never -0).
func (g *GCN) AddPartials(p *Partials) {
	for i, l := range g.layers {
		if i > 0 {
			l.gradW.AddInPlace(&p.m[i])
			continue
		}
		w := l.Out
		for t, r := range p.rows {
			dst, src := l.gradW.Data[int(r)*w:int(r+1)*w], p.m[0].Data[t*w:(t+1)*w]
			for j, v := range src {
				dst[j] += v
			}
		}
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
