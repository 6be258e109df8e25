package rl

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// ActorCritic abstracts the GCN+MLP networks of Fig. 3 for the PPO update.
// The policy and value heads share the GCN trunk; each head exposes its own
// parameter list (trunk parameters appear in both, matching "the weights of
// the GCN are updated twice", §IV-C) and its own batched forward/backward
// pair. A batch is a slice of observations, one matrix row each.
//
// The batched passes must equal single-observation passes run one after
// another: row i of a forward is what a forward of obs[i] alone computes,
// and a backward adds to each gradient exactly what backpropagating the
// listed rows one at a time, in order, adds. Update relies on this to stay
// bit-identical to a per-sample loop.
type ActorCritic interface {
	// ForwardPolicyBatch computes raw (unmasked) action logits, one row per
	// observation, and caches activations for BackwardPolicyBatch. The
	// returned matrix is borrowed network scratch: valid until the next
	// forward call, never to be modified or retained.
	ForwardPolicyBatch(obs []Observation) *nn.Matrix
	// BackwardPolicyBatch accumulates policy-head gradients for the rows
	// of the last policy forward that rows lists, in list order; row r of
	// dLogits holds the upstream logit gradient of forward row r. Rows
	// that are not listed contribute nothing.
	BackwardPolicyBatch(dLogits *nn.Matrix, rows []int)
	// PolicyParams lists trunk + actor-head parameters.
	PolicyParams() []nn.Param

	// ForwardValueBatch computes the value estimate of each observation
	// and caches activations for BackwardValueBatch. The returned slice is
	// borrowed network scratch.
	ForwardValueBatch(obs []Observation) []float64
	// BackwardValueBatch accumulates value-head gradients for every row of
	// the last value forward, in row order.
	BackwardValueBatch(dValues []float64)
	// ValueParams lists trunk + critic-head parameters.
	ValueParams() []nn.Param
}

// updateChunk is the number of samples each batched pass of Update covers.
// Processing the batch in fixed chunks bounds the activation memory at
// paper-scale batches; gradients accumulate sample by sample in order, so
// the chunk size never changes a result.
var updateChunk = 32

// PPOConfig collects the update hyperparameters (Table II plus the
// SpinningUp defaults for iteration counts).
type PPOConfig struct {
	// ClipRatio is ε of Eq. 5.
	ClipRatio float64
	// ActorLR / CriticLR are the Adam learning rates.
	ActorLR  float64
	CriticLR float64
	// TrainPiIters / TrainVIters are gradient steps per epoch.
	TrainPiIters int
	TrainVIters  int
	// TargetKL triggers early stopping of policy iterations when the
	// sample KL estimate exceeds 1.5×TargetKL (SpinningUp convention).
	TargetKL float64
	// MaxGradNorm clips gradients when positive.
	MaxGradNorm float64
}

// DefaultPPOConfig returns the paper defaults: clip ratio 0.2, actor LR
// 3e-4, critic LR 1e-3, with SpinningUp's 80/80 iteration counts and 0.01
// target KL.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		ClipRatio:    0.2,
		ActorLR:      3e-4,
		CriticLR:     1e-3,
		TrainPiIters: 80,
		TrainVIters:  80,
		TargetKL:     0.01,
	}
}

// Validate checks the configuration.
func (c PPOConfig) Validate() error {
	if c.ClipRatio <= 0 || c.ClipRatio >= 1 {
		return fmt.Errorf("ppo: clip ratio %v must be in (0,1)", c.ClipRatio)
	}
	if c.ActorLR <= 0 || c.CriticLR <= 0 {
		return fmt.Errorf("ppo: learning rates must be positive")
	}
	if c.TrainPiIters <= 0 || c.TrainVIters <= 0 {
		return fmt.Errorf("ppo: iteration counts must be positive")
	}
	return nil
}

// UpdateStats reports what one PPO update did.
type UpdateStats struct {
	PolicyLoss   float64
	ValueLoss    float64
	ApproxKL     float64
	Entropy      float64
	ClipFraction float64
	PiIters      int
	EarlyStopped bool
}

// PPO owns the two Adam optimizers and performs epoch updates
// (Algorithm 2, lines 19–21).
type PPO struct {
	cfg       PPOConfig
	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	// scratch backs the per-step masked-logits / probability vectors of
	// Update, sized from the first step's logits; obs, rows, dLogits and
	// dValues back the batched passes. Reusing them keeps the inner loops
	// allocation-free across iterations and epochs.
	scratch *nn.Scratch
	obs     []Observation
	rows    []int
	dLogits nn.Matrix
	dValues []float64
}

// scratchFor returns the update scratch arena, (re)built when the action
// space changed.
func (p *PPO) scratchFor(n int) *nn.Scratch {
	if p.scratch == nil || len(p.scratch.Masked) != n {
		p.scratch = nn.NewScratch(n)
	}
	return p.scratch
}

// NewPPO builds a PPO updater.
func NewPPO(cfg PPOConfig) (*PPO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PPO{
		cfg:       cfg,
		actorOpt:  nn.NewAdam(cfg.ActorLR),
		criticOpt: nn.NewAdam(cfg.CriticLR),
	}, nil
}

// AdamSteps reports how many optimizer updates the actor and critic Adam
// instances have applied over the lifetime of this PPO (telemetry).
func (p *PPO) AdamSteps() (actor, critic int) {
	return p.actorOpt.Steps(), p.criticOpt.Steps()
}

// Update performs one epoch's gradient updates from the buffered data:
// gradient ascent on the PPO-clip objective for GCN+actor, gradient descent
// on the value MSE for GCN+critic. Each iteration forwards and
// backpropagates the whole batch in chunks of updateChunk samples; losses,
// statistics and gradients are summed sample by sample in buffer order, so
// the result is bit-identical to forwarding and backpropagating one sample
// at a time.
func (p *PPO) Update(ac ActorCritic, buf *Buffer) (UpdateStats, error) {
	steps, adv, ret, err := buf.Batch()
	if err != nil {
		return UpdateStats{}, err
	}
	// A stored action its own mask disables is poisoned data: its behavior
	// log-probability is -inf and the policy gradient would push mass onto
	// a disabled action. No retry can fix the batch, so reject it up front
	// rather than let the numerics corrupt the policy.
	for i, s := range steps {
		if s.Mask == nil {
			continue
		}
		if s.Action < 0 || s.Action >= len(s.Mask) || !s.Mask[s.Action] {
			return UpdateStats{}, fmt.Errorf("rl: step %d stores action %d that its mask disables", i, s.Action)
		}
	}
	p.obs = p.obs[:0]
	for _, s := range steps {
		p.obs = append(p.obs, s.Obs)
	}
	n := float64(len(steps))
	var stats UpdateStats

	// Policy iterations.
	for iter := 0; iter < p.cfg.TrainPiIters; iter++ {
		nn.ZeroGrads(ac.PolicyParams())
		var loss, kl, entropy, clipped float64
		for lo := 0; lo < len(steps); lo += updateChunk {
			hi := min(lo+updateChunk, len(steps))
			logits := ac.ForwardPolicyBatch(p.obs[lo:hi])
			a := logits.Cols
			sc := p.scratchFor(a)
			p.dLogits.EnsureShape(hi-lo, a)
			p.rows = p.rows[:0]
			for i := lo; i < hi; i++ {
				s, r := steps[i], i-lo
				masked := nn.MaskLogitsInto(sc.Masked, logits.Data[r*a:(r+1)*a], s.Mask)
				l, k, h, clip, back := p.policySample(sc, masked, s, adv[i], n, p.dLogits.Data[r*a:(r+1)*a])
				loss += l
				kl += k
				entropy += h
				if clip {
					clipped++
				}
				if back {
					p.rows = append(p.rows, r)
				}
			}
			if len(p.rows) > 0 {
				ac.BackwardPolicyBatch(&p.dLogits, p.rows)
			}
		}
		stats.PolicyLoss = loss / n
		stats.ApproxKL = kl / n
		stats.Entropy = entropy / n
		stats.ClipFraction = clipped / n
		stats.PiIters = iter + 1
		if p.cfg.TargetKL > 0 && stats.ApproxKL > 1.5*p.cfg.TargetKL {
			stats.EarlyStopped = true
			break
		}
		if p.cfg.MaxGradNorm > 0 {
			nn.ClipGrads(ac.PolicyParams(), p.cfg.MaxGradNorm)
		}
		p.actorOpt.Step(ac.PolicyParams())
	}

	// Value iterations.
	for iter := 0; iter < p.cfg.TrainVIters; iter++ {
		nn.ZeroGrads(ac.ValueParams())
		var loss float64
		for lo := 0; lo < len(steps); lo += updateChunk {
			hi := min(lo+updateChunk, len(steps))
			values := ac.ForwardValueBatch(p.obs[lo:hi])
			p.dValues = p.dValues[:0]
			for i := lo; i < hi; i++ {
				diff := values[i-lo] - ret[i]
				loss += diff * diff
				p.dValues = append(p.dValues, 2*diff/n)
			}
			ac.BackwardValueBatch(p.dValues)
		}
		stats.ValueLoss = loss / n
		if p.cfg.MaxGradNorm > 0 {
			nn.ClipGrads(ac.ValueParams(), p.cfg.MaxGradNorm)
		}
		p.criticOpt.Step(ac.ValueParams())
	}
	return stats, nil
}

// policySample evaluates the PPO-clip objective of one sample from its
// masked logits: the sample's loss, KL and entropy terms, whether the
// clipped branch is active, and whether grad received the gradient of the
// batch-mean loss with respect to the sample's logits (only the unclipped
// branch has one, and only when it is nonzero).
func (p *PPO) policySample(sc *nn.Scratch, masked []float64, s Step, a, n float64, grad []float64) (loss, kl, entropy float64, clipped, backprop bool) {
	logp := nn.LogSoftmaxInto(sc.LogProbs, masked)[s.Action]
	ratio := math.Exp(logp - s.LogP)

	clipLo, clipHi := 1-p.cfg.ClipRatio, 1+p.cfg.ClipRatio
	unclipped := ratio * a
	clampedRatio := math.Min(math.Max(ratio, clipLo), clipHi)
	obj := math.Min(unclipped, clampedRatio*a)
	loss, kl = -obj, s.LogP-logp
	entropy = nn.Entropy(nn.SoftmaxInto(sc.Probs, masked))

	// Gradient of -obj w.r.t. logp: active only when the unclipped branch
	// is selected.
	if !((a >= 0 && ratio <= clipHi) || (a < 0 && ratio >= clipLo)) {
		return loss, kl, entropy, true, false
	}
	dObjDLogp := ratio * a
	if dObjDLogp == 0 {
		return loss, kl, entropy, false, false
	}
	nn.LogSoftmaxGradInto(grad, masked, s.Action)
	scale := -dObjDLogp / n // minimize loss = -mean(obj)
	for j, g := range grad {
		grad[j] = scale * g
	}
	return loss, kl, entropy, false, true
}

// RewardScaler maps raw rewards into a small range by dividing by Scale
// (the reward scaling factor of Table II, 10^3), keeping gradients away
// from saturation (§IV-C "Reward Design").
type RewardScaler struct {
	Scale float64
}

// Apply scales a raw reward.
func (r RewardScaler) Apply(raw float64) float64 {
	if r.Scale == 0 {
		return raw
	}
	return raw / r.Scale
}
