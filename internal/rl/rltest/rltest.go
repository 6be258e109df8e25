// Package rltest builds PPO update inputs from real planner epochs, for
// the tests and benchmarks of the update: the ORION problem, the networks
// the planner would build for it, and one epoch of exploration collected
// through the same public pieces the planner composes.
package rltest

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/scenarios"
)

// ORION returns the ORION problem with the given number of seeded random
// flows and stateless recovery.
func ORION(flows int, seed int64) (*core.Problem, error) {
	s, err := scenarios.ORION()
	if err != nil {
		return nil, err
	}
	prob := s.Problem(s.RandomFlows(flows, seed), &nbf.StatelessRecovery{}, 1e-6)
	// Validation completes the problem (the encoder's feature layout
	// depends on it), as the planner's constructor does.
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return prob, nil
}

// Nets builds the networks the planner would build for prob under cfg;
// equal configs give bit-identical weights.
func Nets(prob *core.Problem, cfg core.Config) (*core.Nets, error) {
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		return nil, err
	}
	enc := core.NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding)
	return core.NewNets(rand.New(rand.NewSource(cfg.Seed)), enc, soag.ActionSpaceSize(), cfg)
}

// PPOConfig returns the update configuration the planner derives from cfg.
func PPOConfig(cfg core.Config) rl.PPOConfig {
	return rl.PPOConfig{
		ClipRatio: cfg.ClipRatio, ActorLR: cfg.ActorLR, CriticLR: cfg.CriticLR,
		TrainPiIters: cfg.TrainPiIters, TrainVIters: cfg.TrainVIters, TargetKL: cfg.TargetKL,
	}
}

// Epoch explores one epoch of cfg.MaxStep steps with nets: cfg.Workers
// environments seeded from seed, stepped in lockstep with one batched
// policy/value forward per step and categorical sampling, each path
// finished on a solution or dead end and bootstrapped at the epoch end. It
// returns the workers' buffers merged in worker order. Equal inputs give
// an identical buffer.
func Epoch(prob *core.Problem, cfg core.Config, nets *core.Nets, seed int64) (*rl.Buffer, error) {
	n := cfg.Workers
	envs := make([]*core.Env, n)
	rngs := make([]*rand.Rand, n)
	bufs := make([]*rl.Buffer, n)
	for i := range envs {
		var err error
		if envs[i], err = core.NewEnv(prob, cfg, seed+int64(i)*104729+2); err != nil {
			return nil, err
		}
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)*7919 + 1))
		bufs[i] = rl.NewBuffer(cfg.Discount, cfg.GAELambda)
	}
	obs := make([]*core.Obs, n)
	logits := make([][]float64, n)
	for i := range logits {
		logits[i] = make([]float64, nets.ActionSpace())
	}
	values := make([]float64, n)
	sc := nn.NewScratch(nets.ActionSpace())
	observe := func() {
		for i, e := range envs {
			obs[i] = e.Observation()
		}
		nets.ForwardPolicyValueBatch(obs, logits, values)
	}
	for j := 0; j < cfg.MaxStep/n; j++ {
		observe()
		for i, e := range envs {
			mask := append([]bool(nil), e.Mask()...)
			masked := nn.MaskLogitsInto(sc.Masked, logits[i], mask)
			action := nn.SampleCategorical(rngs[i], nn.SoftmaxInto(sc.Probs, masked))
			logp := nn.LogSoftmaxInto(sc.LogProbs, masked)[action]
			reward, outcome, err := e.StepContext(context.Background(), action)
			if err != nil {
				return nil, fmt.Errorf("rltest: step: %w", err)
			}
			bufs[i].Store(rl.Step{Obs: obs[i], Action: action, Mask: mask, LogP: logp, Value: values[i], Reward: reward})
			if outcome == core.OutcomeSolved || outcome == core.OutcomeDeadEnd {
				bufs[i].FinishPath(0)
			}
		}
	}
	observe()
	merged := rl.NewBuffer(cfg.Discount, cfg.GAELambda)
	for i, b := range bufs {
		b.FinishPath(values[i])
		if err := merged.Merge(b); err != nil {
			return nil, err
		}
	}
	return merged, nil
}
