package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/rl"
)

// Nets is the neural-network architecture of Fig. 3: a graph trunk (GCN by
// default) shared by an actor MLP (logits over the dynamic action space)
// and a critic MLP (scalar value), with the flow/network parameter vector
// concatenated onto the flattened graph embedding.
//
// Forward passes write into network-owned scratch buffers, so steady-state
// evaluation allocates nothing. ForwardPolicy's returned slice is borrowed
// scratch, valid until the next forward call on the same Nets.
type Nets struct {
	gcn    nn.Trunk
	useGAT bool
	actor  *nn.MLP
	critic *nn.MLP

	numVertices int
	featDim     int
	embedCols   int // per-node embedding width after the GCN
	liveCols    int // MLP input columns that carry a trunk gradient
	actionSpace int
	trunkCost   int // approximate multiply-adds of one trunk forward

	// cached parameter lists (built once; callers must not mutate)
	policyParams []nn.Param
	valueParams  []nn.Param
	allParams    []nn.Param

	// scratch
	xRow   *nn.Matrix // 1×mlpIn MLP input for single-observation forwards
	batchX *nn.Matrix // B×mlpIn MLP input for batched forwards
	dOut   *nn.Matrix // upstream gradient wrapper for BackwardPolicy/Value
	dEmb   nn.Matrix  // view onto the embedding slice of the input gradient

	// single-observation passes: the trunk activations of the last
	// forward and room for its trunk-gradient contributions
	act  nn.Activations
	part nn.Partials

	// caches for backward passes
	lastPolicyObs *Obs
	lastValueObs  *Obs

	// batched training passes (ForwardPolicyBatch & co.)
	team     nn.Team
	acts     []nn.Activations // per batch row: the trunk activations
	mu       sync.Mutex       // guards idle
	idle     []*trunkWorker   // trunk replicas not in use by a goroutine
	partials []nn.Partials    // per batch row: trunk-gradient contributions
	added    atomic.Int64     // rows of the running backward added in order
	batchObs []*Obs           // the batch's observations
	dX       *nn.Matrix       // MLP input gradient of the running backward
	rows     []int            // rows of the running backward (nil: all)
}

// trunkWorker is one goroutine's trunk backward: a replica sharing the
// trunk's weights with its own backward scratch, the view of a row's
// embedding gradient, and room for a row's trunk-gradient contributions.
type trunkWorker struct {
	trunk    nn.Trunk
	dEmb     nn.Matrix
	partials nn.Partials
}

var _ rl.ActorCritic = (*Nets)(nil)

// NewNets builds the networks for the given problem geometry, action-space
// size and config. NPTSN passes the SOAG's action-space size; the NeuroPlan
// baseline passes its static action count.
func NewNets(rng *rand.Rand, enc *Encoder, actionSpace int, cfg Config) (*Nets, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if actionSpace <= 0 {
		return nil, fmt.Errorf("core: action space must be positive, got %d", actionSpace)
	}
	n := enc.prob.NumVertices()
	featDim := enc.FeatureDim()
	var trunk nn.Trunk
	if cfg.UseGAT {
		trunk = nn.NewGAT(rng, cfg.GCNLayers, featDim, cfg.GCNHidden, cfg.EmbeddingPerNode)
	} else {
		trunk = nn.NewGCN(rng, cfg.GCNLayers, featDim, cfg.GCNHidden, cfg.EmbeddingPerNode)
	}
	embedCols := trunk.OutFeatures(featDim)
	// A dense bound on a trunk forward: the first layer as if it were an
	// n×featDim by featDim×GCNHidden product. Only the split of the batched
	// loops across goroutines depends on it.
	trunkCost, liveCols := 0, 0
	if cfg.GCNLayers > 0 {
		trunkCost = n * featDim * cfg.GCNHidden
		// Both trunks end in a ReLU, and the parameter vector is constant.
		liveCols = n * embedCols
	}
	mlpIn := n*embedCols + enc.ParamDim()
	nt := &Nets{
		gcn:         trunk,
		useGAT:      cfg.UseGAT,
		actor:       nn.NewMLP(rng, mlpIn, cfg.MLPHidden, actionSpace, nn.Tanh),
		critic:      nn.NewMLP(rng, mlpIn, cfg.MLPHidden, 1, nn.Tanh),
		numVertices: n,
		featDim:     featDim,
		trunkCost:   trunkCost,
		embedCols:   embedCols,
		liveCols:    liveCols,
		actionSpace: actionSpace,
		xRow:        nn.NewMatrix(1, mlpIn),
		batchX:      new(nn.Matrix),
		dOut:        new(nn.Matrix),
		dX:          new(nn.Matrix),
	}
	// Parameter lists are fixed for the network's lifetime; caching them
	// keeps the per-iteration ZeroGrads/ClipGrads/Step calls allocation-
	// free. Exact capacities so appends by callers reallocate.
	pp := append(trunk.Params(), nt.actor.Params()...)
	vp := append(trunk.Params(), nt.critic.Params()...)
	ap := append(append(trunk.Params(), nt.actor.Params()...), nt.critic.Params()...)
	nt.policyParams = pp[:len(pp):len(pp)]
	nt.valueParams = vp[:len(vp):len(vp)]
	nt.allParams = ap[:len(ap):len(ap)]
	return nt, nil
}

// graph returns an observation as the trunk reads it.
func (nt *Nets) graph(o *Obs) nn.Graph {
	switch {
	case nt.gcn.NumLayers() == 0:
		return nn.Graph{X: o.Feat}
	case nt.useGAT:
		return nn.Graph{X: o.Feat, S: o.SHat}
	}
	return o.gcnGraph()
}

// asObs unwraps an rl observation.
func asObs(obs rl.Observation) *Obs {
	o, ok := obs.(*Obs)
	if !ok {
		panic(fmt.Sprintf("core: unexpected observation type %T", obs))
	}
	return o
}

// embed runs the graph trunk and assembles the MLP input into xRow.
func (nt *Nets) embed(obs *Obs) *nn.Matrix {
	emb := nt.gcn.Forward(nt.graph(obs), &nt.act)
	embLen := nt.numVertices * nt.embedCols
	copy(nt.xRow.Data[:embLen], emb.Data)
	copy(nt.xRow.Data[embLen:], obs.Params.Data)
	return nt.xRow
}

// backThroughEmbedding splits the MLP input gradient and backpropagates the
// embedding part through the GCN (the parameter-vector part is constant).
// dEmb is a read-only reshaped view of dIn's prefix, consumed immediately.
func (nt *Nets) backThroughEmbedding(dIn *nn.Matrix) {
	embLen := nt.numVertices * nt.embedCols
	nt.dEmb.Rows, nt.dEmb.Cols = nt.numVertices, nt.embedCols
	nt.dEmb.Data = dIn.Data[:embLen]
	nt.gcn.Backward(&nt.dEmb, &nt.act, &nt.part)
	nt.gcn.AddPartials(&nt.part)
}

// ForwardPolicy computes the actor's logits for one observation and caches
// activations for BackwardPolicy. The returned slice is borrowed
// network scratch: valid until the next forward call, never to be modified
// or retained by the caller.
func (nt *Nets) ForwardPolicy(obs rl.Observation) []float64 {
	o := asObs(obs)
	nt.lastPolicyObs = o
	return nt.actor.Forward(nt.embed(o)).Data
}

// BackwardPolicy accumulates the policy gradients of the last ForwardPolicy
// for the upstream logit gradient.
func (nt *Nets) BackwardPolicy(dLogits []float64) {
	if nt.lastPolicyObs == nil {
		panic("core: policy backward before forward")
	}
	nt.dOut.EnsureShape(1, len(dLogits))
	copy(nt.dOut.Data, dLogits)
	nt.backThroughEmbedding(nt.actor.Backward(nt.dOut))
}

// PolicyParams implements rl.ActorCritic: GCN trunk + actor head. The
// returned list is cached; callers must treat it as read-only.
func (nt *Nets) PolicyParams() []nn.Param { return nt.policyParams }

// ForwardValue computes the critic's estimate for one observation and
// caches activations for BackwardValue.
func (nt *Nets) ForwardValue(obs rl.Observation) float64 {
	o := asObs(obs)
	nt.lastValueObs = o
	return nt.critic.Forward(nt.embed(o)).Data[0]
}

// BackwardValue accumulates the value gradients of the last ForwardValue.
func (nt *Nets) BackwardValue(dV float64) {
	if nt.lastValueObs == nil {
		panic("core: value backward before forward")
	}
	nt.dOut.EnsureShape(1, 1)
	nt.dOut.Data[0] = dV
	nt.backThroughEmbedding(nt.critic.Backward(nt.dOut))
}

// ValueParams implements rl.ActorCritic: GCN trunk + critic head (cached,
// read-only).
func (nt *Nets) ValueParams() []nn.Param { return nt.valueParams }

// ActionSpace returns the actor's output dimension.
func (nt *Nets) ActionSpace() int { return nt.actionSpace }

// ForwardPolicyValueBatch evaluates both heads for a row-stacked batch of
// observations in one call: the trunk runs per observation (the
// block-diagonal Ŝ of the batch factorizes into independent blocks), the
// embeddings are stacked into one B×mlpIn matrix, and each MLP runs a
// single batched matmul chain over it. Because every matmul kernel
// computes output rows independently, row i of the batch is bit-identical
// to a single-observation forward of obs[i] — the property the batched
// exploration path relies on for reproducibility, asserted by the
// differential tests.
//
// logits[i] must be a caller-owned slice of length ActionSpace(); values
// must have length len(obs). Backward caches are not maintained: this is
// an inference-only path (the PPO update uses ForwardPolicyBatch and
// ForwardValueBatch).
func (nt *Nets) ForwardPolicyValueBatch(obs []*Obs, logits [][]float64, values []float64) {
	b := len(obs)
	if b == 0 {
		return
	}
	if len(logits) != b || len(values) != b {
		panic(fmt.Sprintf("core: batch of %d obs with %d logit / %d value slots", b, len(logits), len(values)))
	}
	nt.batchObs = append(nt.batchObs[:0], obs...)
	x := nt.embedBatch(nil)
	out := nt.actor.Forward(x)
	for i := range obs {
		if len(logits[i]) != nt.actionSpace {
			panic(fmt.Sprintf("core: logits[%d] has %d slots, action space is %d", i, len(logits[i]), nt.actionSpace))
		}
		copy(logits[i], out.Data[i*nt.actionSpace:(i+1)*nt.actionSpace])
	}
	vals := nt.critic.Forward(x)
	for i := range obs {
		values[i] = vals.Data[i]
	}
}

// ForwardPolicyBatch implements rl.ActorCritic: the actor's logits for a
// batch of observations, one row each, caching what BackwardPolicyBatch
// needs. The observations are embedded by trunk replicas and the actor's
// rows computed on up to GOMAXPROCS goroutines; row i is bit-identical to
// ForwardPolicy(obs[i]).
func (nt *Nets) ForwardPolicyBatch(obs []rl.Observation) *nn.Matrix {
	nt.setBatch(obs)
	return nt.actor.ForwardTeam(nt.embedBatch(&nt.team), &nt.team)
}

// BackwardPolicyBatch implements rl.ActorCritic.
func (nt *Nets) BackwardPolicyBatch(dLogits *nn.Matrix, rows []int) {
	nt.backThroughEmbeddings(nt.actor.BackwardRows(dLogits, rows, nt.liveCols, &nt.team), rows)
}

// ForwardValueBatch implements rl.ActorCritic: the critic's estimates for a
// batch of observations, bit-identical to ForwardValue one at a time.
func (nt *Nets) ForwardValueBatch(obs []rl.Observation) []float64 {
	nt.setBatch(obs)
	return nt.critic.ForwardTeam(nt.embedBatch(&nt.team), &nt.team).Data
}

// BackwardValueBatch implements rl.ActorCritic.
func (nt *Nets) BackwardValueBatch(dValues []float64) {
	nt.dOut.EnsureShape(len(dValues), 1)
	copy(nt.dOut.Data, dValues)
	nt.backThroughEmbeddings(nt.critic.BackwardRows(nt.dOut, nil, nt.liveCols, &nt.team), nil)
}

// setBatch makes obs the batch of the next embedBatch.
func (nt *Nets) setBatch(obs []rl.Observation) {
	nt.batchObs = nt.batchObs[:0]
	for _, o := range obs {
		nt.batchObs = append(nt.batchObs, asObs(o))
	}
}

// embedBatch stacks the MLP inputs of the batch's observations into the
// rows of batchX, spreading the rows over t's goroutines (nil: the calling
// goroutine only). Each row's trunk activations stay in its own
// Activations until the backward pass reads them.
func (nt *Nets) embedBatch(t *nn.Team) *nn.Matrix {
	nt.batchX.EnsureShape(len(nt.batchObs), len(nt.xRow.Data))
	for len(nt.acts) < len(nt.batchObs) {
		nt.acts = append(nt.acts, nn.Activations{})
	}
	t.For(len(nt.batchObs), nt.trunkCost, trunkForward{nt})
	return nt.batchX
}

// trunkForward embeds batch rows [lo, hi).
type trunkForward struct{ nt *Nets }

func (f trunkForward) Run(lo, hi int) {
	nt := f.nt
	embLen := nt.numVertices * nt.embedCols
	for i := lo; i < hi; i++ {
		o := nt.batchObs[i]
		row := nt.batchX.Data[i*nt.batchX.Cols : (i+1)*nt.batchX.Cols]
		copy(row[:embLen], nt.gcn.Forward(nt.graph(o), &nt.acts[i]).Data)
		copy(row[embLen:], o.Params.Data)
	}
}

// backThroughEmbeddings backpropagates the embedding part of the listed
// rows of the MLP input gradient dX (nil: all rows) through the trunk, in
// parallel, and adds each row's trunk-gradient contributions into the
// trunk's gradients in row order — the additions, in the order, that
// backpropagating the rows one at a time makes. A shard that starts once
// every row before it has been added adds its rows' contributions as it
// goes; the other shards keep theirs in nt.partials until the loop is
// done. Each row's backward reads the activations its forward kept.
func (nt *Nets) backThroughEmbeddings(dX *nn.Matrix, rows []int) {
	n := dX.Rows
	if rows != nil {
		n = len(rows)
	}
	for len(nt.partials) < dX.Rows {
		nt.partials = append(nt.partials, nn.Partials{})
	}
	nt.dX, nt.rows = dX, rows
	nt.added.Store(0)
	nt.team.For(n, 2*nt.trunkCost, trunkBackward{nt})
	for r := int(nt.added.Load()); r < n; r++ {
		nt.gcn.AddPartials(&nt.partials[nt.row(r)])
	}
	nt.dX, nt.rows = nil, nil
}

// row maps position r of the running backward's row list to a batch row.
func (nt *Nets) row(r int) int {
	if nt.rows == nil {
		return r
	}
	return nt.rows[r]
}

// trunkBackward backpropagates listed rows [lo, hi) through the trunk.
// When the rows before lo have all been added (nt.added == lo), no other
// shard adds until this one advances nt.added, so it adds its rows'
// contributions directly; otherwise it keeps them in nt.partials.
type trunkBackward struct{ nt *Nets }

func (f trunkBackward) Run(lo, hi int) {
	nt := f.nt
	w := nt.takeWorker()
	defer nt.putWorker(w)
	direct := nt.added.Load() == int64(lo)
	embLen := nt.numVertices * nt.embedCols
	for r := lo; r < hi; r++ {
		i := nt.row(r)
		w.dEmb.Rows, w.dEmb.Cols = nt.numVertices, nt.embedCols
		w.dEmb.Data = nt.dX.Data[i*nt.dX.Cols : i*nt.dX.Cols+embLen]
		p := &nt.partials[i]
		if direct {
			p = &w.partials
		}
		w.trunk.Backward(&w.dEmb, &nt.acts[i], p)
		if direct {
			nt.gcn.AddPartials(p)
		}
	}
	if direct {
		nt.added.Store(int64(hi))
	}
}

// takeWorker hands a goroutine an idle trunk replica, building one when
// every replica is busy; putWorker returns it.
func (nt *Nets) takeWorker() *trunkWorker {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if n := len(nt.idle); n > 0 {
		w := nt.idle[n-1]
		nt.idle = nt.idle[:n-1]
		return w
	}
	return &trunkWorker{trunk: nt.gcn.Replica()}
}

func (nt *Nets) putWorker(w *trunkWorker) {
	nt.mu.Lock()
	nt.idle = append(nt.idle, w)
	nt.mu.Unlock()
}

// AllParams lists every parameter exactly once (GCN, actor, critic), used
// for replica synchronization. The returned list is cached; read-only.
func (nt *Nets) AllParams() []nn.Param { return nt.allParams }

// SyncFrom copies parameter values from src (replica synchronization after
// a global update, §IV-C).
func (nt *Nets) SyncFrom(src *Nets) {
	nn.CopyParams(nt.AllParams(), src.AllParams())
}

// ExportWeights snapshots all trainable parameters for persistence or warm
// starting a later run (Adam moments are not included).
func (nt *Nets) ExportWeights() [][]float64 {
	return nn.ExportWeights(nt.AllParams())
}

// ImportWeights restores a snapshot taken from an identically configured
// network (same problem geometry, action space and Config sizes).
func (nt *Nets) ImportWeights(w [][]float64) error {
	return nn.ImportWeights(nt.AllParams(), w)
}
