package nn

// Trunk is a graph encoder over a per-observation operator: the GCN of
// Eq. 4 (over Ŝ) or the GAT alternative (attending over Ŝ's nonzero
// pattern, the self-looped adjacency).
type Trunk interface {
	// Forward encodes graph g and keeps in a what Backward reads. It only
	// reads the trunk, so forwards into different Activations may run
	// concurrently. The returned matrix belongs to a (or is g.X for a
	// trunk without layers).
	Forward(g Graph, a *Activations) *Matrix
	// Backward backpropagates dY through the forward that filled a and
	// stores that observation's parameter-gradient contributions in p. It
	// skips the input-feature gradient, which no caller uses. Backward
	// writes the trunk's own scratch: concurrent backward passes need
	// one replica each.
	Backward(dY *Matrix, a *Activations, p *Partials)
	// AddPartials adds contributions stored by Backward — of this trunk or
	// of one of its replicas — into the trunk's gradients.
	AddPartials(p *Partials)
	// Replica returns a trunk that shares this trunk's parameters but owns
	// its backward scratch. A replica has no gradient accumulators.
	Replica() Trunk
	Params() []Param
	// OutFeatures is the per-node embedding width for in input features.
	OutFeatures(in int) int
	NumLayers() int
}

var (
	_ Trunk = (*GCN)(nil)
	_ Trunk = (*GAT)(nil)
)

// Graph is one observation as a trunk reads it: the node features and the
// propagation operator Ŝ, whose nonzero pattern (the self-looped
// adjacency) is also the attention mask of a GAT.
type Graph struct {
	// X is the node feature matrix.
	X *Matrix
	// S is the propagation operator Ŝ of Eq. 4. A GCN propagates over it,
	// a GAT attends over its nonzero pattern.
	S *Sparse
	// SX is the first GCN layer's propagated input ŜX. It depends on the
	// observation alone, so it is computed once per observation
	// (GCNGraph); a GAT does not read it.
	SX *Sparse
}

// GCNGraph returns the GCN input of an observation with propagation
// operator s and node features x. ŜX holds exactly the values MatMulInto
// computes for the dense product.
func GCNGraph(s *Sparse, x *Matrix) Graph {
	return Graph{X: x, S: s, SX: s.mulSparse(x)}
}

// Activations holds one observation's forward state, from a trunk's
// Forward until its Backward: per layer only the matrices the backward
// reads. The zero value is ready for use; the buffers are sized on first
// use and reused after.
type Activations struct {
	g Graph
	m []Matrix
	v [][]float64 // GAT, per layer: the source and neighbor scores
}

// Partials holds one observation's trunk-gradient contributions from a
// Backward until AddPartials adds them to the trunk's gradients. The zero
// value is ready for use; the buffers are sized on first use and reused
// after.
type Partials struct {
	m []Matrix    // per layer: the weight-gradient partial (GAT: and Z)
	v [][]float64 // GAT, per layer: the attention-score gradients
	// rows lists the weight-gradient rows a GCN's first-layer partial
	// holds, in order: ŜX's nonempty columns.
	rows []int32
}

// grow returns n matrices and k vectors, grown as needed.
func grow(m []Matrix, n int, v [][]float64, k int) ([]Matrix, [][]float64) {
	for len(m) < n {
		m = append(m, Matrix{})
	}
	for len(v) < k {
		v = append(v, nil)
	}
	return m, v
}
