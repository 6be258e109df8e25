package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// gatLeakySlope is the LeakyReLU slope of the attention scores (the value
// used by Veličković et al.).
const gatLeakySlope = 0.2

// GATLayer is a single-head Graph Attention layer (Veličković et al.): the
// §IV-C alternative to GCN. Attention coefficients are computed per edge
// with a LeakyReLU-activated additive score and normalized by a masked
// softmax over each node's neighborhood.
//
// Like GCNLayer, the activations live in the caller's Activations and the
// backward scratch in the layer, resized in place.
type GATLayer struct {
	In, Out int
	Act     Activation

	W  *Matrix // In×Out
	A1 *Matrix // Out×1: attention weights for the source node
	A2 *Matrix // Out×1: attention weights for the neighbor node

	gradW  *Matrix
	gradA1 *Matrix
	gradA2 *Matrix

	// backward scratch
	dS        *Matrix
	dZ        *Matrix
	dH        *Matrix
	dSrc      []float64
	dDst      []float64
	dAlphaRow []float64
}

// gatActs is one layer's part of an Activations: the transformed features
// Z = HW, the attention α, the output and the per-node source/neighbor
// scores (an edge's unactivated score is src[i] + dst[j]).
type gatActs struct {
	z, alpha, y *Matrix
	src, dst    *[]float64
}

// gatLayerActs returns layer i's part of a.
func gatLayerActs(a *Activations, i int) gatActs {
	return gatActs{z: &a.m[3*i], alpha: &a.m[3*i+1], y: &a.m[3*i+2], src: &a.v[2*i], dst: &a.v[2*i+1]}
}

// NewGATLayer builds a layer with Xavier-initialized parameters.
func NewGATLayer(rng *rand.Rand, in, out int, act Activation) *GATLayer {
	l := &GATLayer{
		In: in, Out: out, Act: act,
		W: NewMatrix(in, out), A1: NewMatrix(out, 1), A2: NewMatrix(out, 1),
		gradW: NewMatrix(in, out), gradA1: NewMatrix(out, 1), gradA2: NewMatrix(out, 1),
		dS: new(Matrix), dZ: new(Matrix), dH: new(Matrix),
	}
	l.W.XavierInit(rng, in, out)
	l.A1.XavierInit(rng, out, 1)
	l.A2.XavierInit(rng, out, 1)
	return l
}

// ensureVec grows a float64 scratch slice to length n, reusing capacity.
func ensureVec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// forward computes the attention aggregation of h over the nonzero pattern
// of mask (the self-looped adjacency) into a's buffers and returns the
// output.
func (l *GATLayer) forward(mask *Sparse, h *Matrix, a gatActs) *Matrix {
	if h.Cols != l.In {
		panic(fmt.Sprintf("nn: gat input features %d, want %d", h.Cols, l.In))
	}
	n := h.Rows
	MatMulInto(a.z, h, l.W)
	z := a.z

	// Per-node source/neighbor scores.
	*a.src = ensureVec(*a.src, n)
	*a.dst = ensureVec(*a.dst, n)
	src, dst := *a.src, *a.dst
	for i := 0; i < n; i++ {
		var s1, s2 float64
		for c := 0; c < l.Out; c++ {
			s1 += z.At(i, c) * l.A1.Data[c]
			s2 += z.At(i, c) * l.A2.Data[c]
		}
		src[i] = s1
		dst[i] = s2
	}

	a.alpha.EnsureShape(n, n)
	a.alpha.Zero()
	alpha := a.alpha
	for i := 0; i < n; i++ {
		nbrs := mask.rowCols(i)
		maxPre := math.Inf(-1)
		for _, j := range nbrs {
			pre := leaky(src[i] + dst[j])
			if pre > maxPre {
				maxPre = pre
			}
		}
		var sum float64
		for _, j := range nbrs {
			e := math.Exp(leaky(src[i]+dst[j]) - maxPre)
			alpha.Set(i, int(j), e)
			sum += e
		}
		for _, j := range nbrs {
			alpha.Set(i, int(j), alpha.At(i, int(j))/sum)
		}
	}

	MatMulInto(a.y, alpha, z)
	l.Act.apply(a.y.Data, a.y.Data)
	return a.y
}

func leaky(x float64) float64 {
	if x > 0 {
		return x
	}
	return gatLeakySlope * x
}

func leakyGrad(x float64) float64 {
	if x > 0 {
		return 1
	}
	return gatLeakySlope
}

// backward computes everything the layer's backward pass does except the
// additions to the parameter gradients: the per-node attention-score
// gradients stay in dSrc/dDst and the weight-gradient partial Hᵀ dZ goes
// to gradW, for addPartial. h is the layer's input. It returns dH when
// input is set (nil otherwise).
func (l *GATLayer) backward(dY *Matrix, mask *Sparse, h *Matrix, a gatActs, input bool, gradW *Matrix) *Matrix {
	n := h.Rows
	l.Act.backwardInto(l.dS, dY, a.y)
	dS := l.dS
	z, alpha, src, dst := a.z, a.alpha, *a.src, *a.dst

	// dZ from the aggregation: dZ = αᵀ dS.
	matMulATInto(l.dZ, alpha, dS)
	dZ := l.dZ

	// dα_ij = dS_i · Z_j for edges; then masked softmax backward per row.
	l.dSrc = ensureVec(l.dSrc, n)
	l.dDst = ensureVec(l.dDst, n)
	l.dAlphaRow = ensureVec(l.dAlphaRow, n)
	dSrc, dDst := l.dSrc, l.dDst
	for i := range dSrc {
		dSrc[i] = 0
		dDst[i] = 0
	}
	for i := 0; i < n; i++ {
		// Row dot products.
		var rowDot float64 // Σ_k α_ik dα_ik
		dAlphaRow := l.dAlphaRow
		for j := range dAlphaRow {
			dAlphaRow[j] = 0
		}
		nbrs := mask.rowCols(i)
		for _, j := range nbrs {
			var dot float64
			for c := 0; c < l.Out; c++ {
				dot += dS.At(i, c) * z.At(int(j), c)
			}
			dAlphaRow[j] = dot
			rowDot += alpha.At(i, int(j)) * dot
		}
		for _, j := range nbrs {
			dPre := alpha.At(i, int(j)) * (dAlphaRow[j] - rowDot)
			dRaw := dPre * leakyGrad(src[i]+dst[j])
			dSrc[i] += dRaw
			dDst[j] += dRaw
		}
	}
	// The attention vectors' contributions to dZ.
	for i := 0; i < n; i++ {
		for c := 0; c < l.Out; c++ {
			dZ.Data[i*l.Out+c] += dSrc[i]*l.A1.Data[c] + dDst[i]*l.A2.Data[c]
		}
	}

	matMulATInto(gradW, h, dZ)
	if !input {
		return nil
	}
	matMulBTInto(l.dH, dZ, l.W)
	return l.dH
}

// addPartial adds one observation's gradient contributions, as
// backward left them, into l's accumulators: the attention-vector
// gradients node by node from the score gradients dSrc/dDst and the
// transformed features z, then the weight-gradient partial gradW.
func (l *GATLayer) addPartial(dSrc, dDst []float64, z, gradW *Matrix) {
	for i := range dSrc {
		for c := 0; c < l.Out; c++ {
			l.gradA1.Data[c] += dSrc[i] * z.At(i, c)
			l.gradA2.Data[c] += dDst[i] * z.At(i, c)
		}
	}
	l.gradW.AddInPlace(gradW)
}

// replica returns a layer sharing l's parameters, with its own scratch and
// no gradient accumulators.
func (l *GATLayer) replica() *GATLayer {
	return &GATLayer{
		In: l.In, Out: l.Out, Act: l.Act, W: l.W, A1: l.A1, A2: l.A2,
		dS: new(Matrix), dZ: new(Matrix), dH: new(Matrix),
	}
}

// Params exposes the layer parameters.
func (l *GATLayer) Params() []Param {
	return []Param{
		{Value: l.W, Grad: l.gradW, Name: "gat.W"},
		{Value: l.A1, Grad: l.gradA1, Name: "gat.A1"},
		{Value: l.A2, Grad: l.gradA2, Name: "gat.A2"},
	}
}

// GAT is a stack of GAT layers, interface-compatible with GCN: it attends
// over the nonzero pattern of the graph's Ŝ (the self-looped adjacency)
// instead of propagating over Ŝ.
type GAT struct {
	layers []*GATLayer
}

// NewGAT builds numLayers GAT layers mapping inFeatures to embedDim with
// hiddenDim in between, mirroring NewGCN.
func NewGAT(rng *rand.Rand, numLayers, inFeatures, hiddenDim, embedDim int) *GAT {
	g := &GAT{}
	if numLayers <= 0 {
		return g
	}
	prev := inFeatures
	for i := 0; i < numLayers; i++ {
		out := hiddenDim
		if i == numLayers-1 {
			out = embedDim
		}
		g.layers = append(g.layers, NewGATLayer(rng, prev, out, ReLU))
		prev = out
	}
	return g
}

// NumLayers returns the number of layers.
func (g *GAT) NumLayers() int { return len(g.layers) }

// OutFeatures mirrors GCN.OutFeatures.
func (g *GAT) OutFeatures(inFeatures int) int {
	if len(g.layers) == 0 {
		return inFeatures
	}
	return g.layers[len(g.layers)-1].Out
}

// Forward implements Trunk. Per layer, a keeps Z, α, the output and the
// node scores.
func (g *GAT) Forward(gr Graph, a *Activations) *Matrix {
	a.g = gr
	h := gr.X
	a.m, a.v = grow(a.m, 3*len(g.layers), a.v, 2*len(g.layers))
	for i, l := range g.layers {
		h = l.forward(gr.S, h, gatLayerActs(a, i))
	}
	return h
}

// input returns layer i's input: the node features, or the output of
// layer i-1.
func (g *GAT) input(a *Activations, i int) *Matrix {
	if i == 0 {
		return a.g.X
	}
	return &a.m[3*(i-1)+2]
}

// Backward implements Trunk. Per layer, p keeps the weight-gradient
// partial, a copy of Z and the attention-score gradients.
func (g *GAT) Backward(dY *Matrix, a *Activations, p *Partials) {
	p.m, p.v = grow(p.m, 2*len(g.layers), p.v, 2*len(g.layers))
	for i := len(g.layers) - 1; i >= 0; i-- {
		l, la := g.layers[i], gatLayerActs(a, i)
		dY = l.backward(dY, a.g.S, g.input(a, i), la, i > 0, &p.m[2*i])
		z := &p.m[2*i+1]
		z.EnsureShape(la.z.Rows, la.z.Cols)
		copy(z.Data, la.z.Data)
		p.v[2*i] = append(p.v[2*i][:0], l.dSrc...)
		p.v[2*i+1] = append(p.v[2*i+1][:0], l.dDst...)
	}
}

// Replica implements Trunk.
func (g *GAT) Replica() Trunk {
	r := &GAT{}
	for _, l := range g.layers {
		r.layers = append(r.layers, l.replica())
	}
	return r
}

// AddPartials implements Trunk.
func (g *GAT) AddPartials(p *Partials) {
	for i, l := range g.layers {
		l.addPartial(p.v[2*i], p.v[2*i+1], &p.m[2*i+1], &p.m[2*i])
	}
}

// Params lists all parameters.
func (g *GAT) Params() []Param {
	var ps []Param
	for _, l := range g.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
