package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rl"
)

// replicaStats is what one benchmark-driven epoch measured.
type replicaStats struct {
	Explore, Update time.Duration
	Forward         time.Duration // summed over forward calls
	Observations    int           // observations forwarded
	Step            time.Duration // summed over env steps
	Steps           int
	PiIters, VIters int
	Samples         int
	GFLOP           float64
}

// replicaNets builds the actor-critic networks the planner would build for
// prob under cfg.
func replicaNets(prob *core.Problem, cfg core.Config) (*core.Nets, *core.Encoder, error) {
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		return nil, nil, err
	}
	enc := core.NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding)
	nets, err := core.NewNets(rand.New(rand.NewSource(cfg.Seed)), enc, soag.ActionSpaceSize(), cfg)
	return nets, enc, err
}

// replicaEpoch drives one training epoch from outside the planner, through
// the same public pieces the planner composes: workers environments
// stepped in lockstep, one batched policy/value forward per step
// (core.Nets.ForwardPolicyValueBatch), categorical sampling, and one
// rl.PPO.Update on the merged buffer. Every call into a layer is a span.
func replicaEpoch(ctx context.Context, prob *core.Problem, cfg core.Config, tr *tracer) (replicaStats, error) {
	var rs replicaStats
	nets, enc, err := replicaNets(prob, cfg)
	if err != nil {
		return rs, err
	}
	n := cfg.Workers
	envs := make([]*core.Env, n)
	rngs := make([]*rand.Rand, n)
	bufs := make([]*rl.Buffer, n)
	for i := range envs {
		if envs[i], err = core.NewEnv(prob, cfg, cfg.Seed+int64(i)*104729+2); err != nil {
			return rs, err
		}
		rngs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1))
		bufs[i] = rl.NewBuffer(cfg.Discount, cfg.GAELambda)
	}
	space := nets.ActionSpace()
	obs := make([]*core.Obs, n)
	logits := make([][]float64, n)
	for i := range logits {
		logits[i] = make([]float64, space)
	}
	values := make([]float64, n)
	sc := nn.NewScratch(space)

	steps := cfg.MaxStep / n
	// Per step: an observation, a mask, a sample, an env step and a store
	// per worker, and one batched forward; then the last observations and
	// forward, the buffer merge, the update and the two parents.
	tr.grow(steps*(5*n+1) + n + 5)
	epoch := tr.reserve("replica.epoch", 0, "", time.Now())
	exploreStart := time.Now()
	explore := tr.reserve("core.explore", epoch, "", exploreStart)
	forward := func() {
		start := time.Now()
		nets.ForwardPolicyValueBatch(obs, logits, values)
		end := time.Now()
		tr.add("nn.forward", explore, "", start, end)
		rs.Forward += end.Sub(start)
		rs.Observations += len(obs)
	}
	for j := 0; j < steps; j++ {
		for i, e := range envs {
			start := time.Now()
			obs[i] = e.Observation()
			tr.add("core.observe", explore, "", start, time.Now())
		}
		forward()
		for i, e := range envs {
			t0 := time.Now()
			mask := append([]bool(nil), e.Mask()...)
			t1 := time.Now()
			masked := nn.MaskLogitsInto(sc.Masked, logits[i], mask)
			action := nn.SampleCategorical(rngs[i], nn.SoftmaxInto(sc.Probs, masked))
			logp := nn.LogSoftmaxInto(sc.LogProbs, masked)[action]
			t2 := time.Now()
			reward, outcome, err := e.StepContext(ctx, action)
			t3 := time.Now()
			if err != nil {
				return rs, fmt.Errorf("replica step: %w", err)
			}
			bufs[i].Store(rl.Step{Obs: obs[i], Action: action, Mask: mask, LogP: logp, Value: values[i], Reward: reward})
			if outcome == core.OutcomeSolved || outcome == core.OutcomeDeadEnd {
				bufs[i].FinishPath(0)
			}
			t4 := time.Now()
			tr.add("core.mask", explore, "", t0, t1)
			tr.add("nn.sample", explore, "", t1, t2)
			tr.add("core.env_step", explore, "", t2, t3)
			tr.add("rl.store", explore, "", t3, t4)
			rs.Step += t3.Sub(t2)
			rs.Steps++
		}
	}
	for i, e := range envs {
		start := time.Now()
		obs[i] = e.Observation()
		tr.add("core.observe", explore, "", start, time.Now())
	}
	forward()
	start := time.Now()
	merged := rl.NewBuffer(cfg.Discount, cfg.GAELambda)
	for i, b := range bufs {
		b.FinishPath(values[i])
		if err := merged.Merge(b); err != nil {
			return rs, err
		}
	}
	tr.add("rl.buffer", explore, "", start, time.Now())
	exploreEnd := time.Now()
	tr.finish(explore, exploreEnd)
	rs.Explore = exploreEnd.Sub(exploreStart)

	ppo, err := rl.NewPPO(rl.PPOConfig{
		ClipRatio: cfg.ClipRatio, ActorLR: cfg.ActorLR, CriticLR: cfg.CriticLR,
		TrainPiIters: cfg.TrainPiIters, TrainVIters: cfg.TrainVIters, TargetKL: cfg.TargetKL,
	})
	if err != nil {
		return rs, err
	}
	start = time.Now()
	st, err := ppo.Update(nets, merged)
	end := time.Now()
	tr.add("rl.update", epoch, "", start, end)
	tr.finish(epoch, end)
	if err != nil {
		return rs, fmt.Errorf("replica update: %w", err)
	}
	rs.Update = end.Sub(start)
	rs.PiIters, rs.VIters, rs.Samples = st.PiIters, cfg.TrainVIters, merged.Len()
	rs.GFLOP = updateFLOP(prob.NumVertices(), enc.FeatureDim(), enc.ParamDim(), space, cfg, rs.PiIters, rs.VIters, rs.Samples) / 1e9
	return rs, nil
}

// updateFLOP counts the floating-point operations of one PPO update from
// the network shapes: every policy iteration forwards and backpropagates
// each sample through the GCN trunk and the actor, every value iteration
// through the trunk and the critic. A multiply-add counts as two
// operations; activations and the optimizer step are not counted, and
// every policy sample is assumed to backpropagate (clipped samples skip
// it), so the figure is an upper bound.
func updateFLOP(vertices, featDim, paramDim, actions int, cfg core.Config, piIters, vIters, samples int) float64 {
	n := float64(vertices)
	var trunkF, trunkB float64
	in := float64(featDim)
	for l := 0; l < cfg.GCNLayers; l++ {
		out := float64(cfg.GCNHidden)
		if l == cfg.GCNLayers-1 {
			out = float64(cfg.EmbeddingPerNode)
		}
		trunkF += 2*n*n*in + 2*n*in*out
		trunkB += 2*n*in*out + 2*n*out*in + 2*n*n*in
		in = out
	}
	mlpIn := n*in + float64(paramDim)
	mlp := func(outDim int) (f, b float64) {
		prev := mlpIn
		dims := append(append([]int(nil), cfg.MLPHidden...), outDim)
		for _, d := range dims {
			f += 2 * prev * float64(d)
			b += 4 * prev * float64(d)
			prev = float64(d)
		}
		return f, b
	}
	af, ab := mlp(actions)
	cf, cb := mlp(1)
	s := float64(samples)
	return float64(piIters)*s*(trunkF+af+ab+trunkB) + float64(vIters)*s*(trunkF+cf+cb+trunkB)
}

// rollout drives a greedy inference-only construction with the given
// weights, as the zoo fast path does, timing each forward and env step.
func rollout(ctx context.Context, prob *core.Problem, cfg core.Config, weights [][]float64, steps int, tr *tracer) (replicaStats, error) {
	var rs replicaStats
	nets, _, err := replicaNets(prob, cfg)
	if err != nil {
		return rs, err
	}
	if err := nets.ImportWeights(weights); err != nil {
		return rs, err
	}
	env, err := core.NewEnv(prob, cfg, cfg.Seed+2)
	if err != nil {
		return rs, err
	}
	logits := [][]float64{make([]float64, nets.ActionSpace())}
	values := make([]float64, 1)
	sc := nn.NewScratch(nets.ActionSpace())
	tr.grow(4*steps + 1)
	root := tr.reserve("replica.rollout", 0, "", time.Now())
	start := time.Now()
	for j := 0; j < steps; j++ {
		t0 := time.Now()
		o := env.Observation()
		t1 := time.Now()
		nets.ForwardPolicyValueBatch([]*core.Obs{o}, logits, values)
		t2 := time.Now()
		action := nn.Argmax(nn.MaskLogitsInto(sc.Masked, logits[0], env.Mask()))
		t3 := time.Now()
		_, _, err := env.StepContext(ctx, action)
		t4 := time.Now()
		tr.add("core.observe", root, "", t0, t1)
		tr.add("nn.forward", root, "", t1, t2)
		tr.add("nn.argmax", root, "", t2, t3)
		tr.add("core.env_step", root, "", t3, t4)
		rs.Forward += t2.Sub(t1)
		rs.Observations++
		rs.Step += t4.Sub(t3)
		rs.Steps++
		if err != nil {
			return rs, fmt.Errorf("rollout step: %w", err)
		}
	}
	end := time.Now()
	tr.finish(root, end)
	rs.Explore = end.Sub(start)
	return rs, nil
}
