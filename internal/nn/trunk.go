package nn

// Trunk is a graph encoder over a per-observation operator: the GCN of
// Eq. 4 (over Ŝ) or the GAT alternative (over the attention mask).
type Trunk interface {
	// Forward encodes node features h under operator op; the returned
	// matrix is trunk-owned scratch.
	Forward(op, h *Matrix) *Matrix
	// Backward accumulates the parameter gradients of the last Forward's
	// observation and returns the input-feature gradient.
	Backward(dY *Matrix) *Matrix
	// Replica returns a trunk that shares this trunk's parameters but owns
	// its activations, so that replicas can forward and backpropagate
	// observations concurrently. A replica has no gradient accumulators.
	Replica() Trunk
	// BackwardPartials backpropagates dY through the replica's last
	// forward and stores that observation's parameter-gradient
	// contributions in p. It skips the input-feature gradient, which no
	// caller uses.
	BackwardPartials(dY *Matrix, p *Partials)
	// AddPartials adds contributions stored by BackwardPartials of one of
	// this trunk's replicas into its gradients: exactly the additions
	// Backward makes for that observation.
	AddPartials(p *Partials)
	Params() []Param
	// OutFeatures is the per-node embedding width for in input features.
	OutFeatures(in int) int
	NumLayers() int
}

var (
	_ Trunk = (*GCN)(nil)
	_ Trunk = (*GAT)(nil)
)

// Partials holds one observation's trunk-gradient contributions from a
// replica's BackwardPartials until AddPartials adds them to the trunk's
// gradients. The zero value is ready for use; the buffers are sized on
// first use and reused after.
type Partials struct {
	m []Matrix    // per layer: the weight-gradient partial (GAT: and Z)
	v [][]float64 // GAT, per layer: the attention-score gradients
}

// mats returns n matrices, grown as needed.
func (p *Partials) mats(n int) []Matrix {
	for len(p.m) < n {
		p.m = append(p.m, Matrix{})
	}
	return p.m[:n]
}
