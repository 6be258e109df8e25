package rl

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// perSampleAC adds the single-observation passes the reference update
// drives to the batched ActorCritic interface.
type perSampleAC interface {
	ActorCritic
	ForwardPolicy(obs Observation) []float64
	BackwardPolicy(dLogits []float64)
	ForwardValue(obs Observation) float64
	BackwardValue(dValue float64)
}

// referenceUpdate is the per-sample PPO update that Update replaced: every
// iteration forwards and backpropagates one sample at a time. It is the
// reference of the differential tests, which require Update to reproduce
// it bit for bit.
func (p *PPO) referenceUpdate(ac perSampleAC, buf *Buffer) (UpdateStats, error) {
	steps, adv, ret, err := buf.Batch()
	if err != nil {
		return UpdateStats{}, err
	}
	for i, s := range steps {
		if s.Mask == nil {
			continue
		}
		if s.Action < 0 || s.Action >= len(s.Mask) || !s.Mask[s.Action] {
			return UpdateStats{}, fmt.Errorf("rl: step %d stores action %d that its mask disables", i, s.Action)
		}
	}
	n := float64(len(steps))
	var stats UpdateStats
	var grad []float64

	// Policy iterations.
	for iter := 0; iter < p.cfg.TrainPiIters; iter++ {
		nn.ZeroGrads(ac.PolicyParams())
		var loss, kl, entropy, clipped float64
		for i, s := range steps {
			logits := ac.ForwardPolicy(s.Obs)
			sc := p.scratchFor(len(logits))
			masked := nn.MaskLogitsInto(sc.Masked, logits, s.Mask)
			logp := nn.LogSoftmaxInto(sc.LogProbs, masked)[s.Action]
			ratio := math.Exp(logp - s.LogP)

			a := adv[i]
			clipLo, clipHi := 1-p.cfg.ClipRatio, 1+p.cfg.ClipRatio
			unclipped := ratio * a
			clampedRatio := math.Min(math.Max(ratio, clipLo), clipHi)
			obj := math.Min(unclipped, clampedRatio*a)
			loss += -obj
			kl += s.LogP - logp
			entropy += nn.Entropy(nn.SoftmaxInto(sc.Probs, masked))

			// Gradient of -obj w.r.t. logp: active only when the
			// unclipped branch is selected.
			var dObjDLogp float64
			if (a >= 0 && ratio <= clipHi) || (a < 0 && ratio >= clipLo) {
				dObjDLogp = ratio * a
			} else {
				clipped++
			}
			if dObjDLogp != 0 {
				grad = nn.LogSoftmaxGradInto(grad, masked, s.Action)
				gLogits := grad
				scale := -dObjDLogp / n // minimize loss = -mean(obj)
				for j, g := range gLogits {
					gLogits[j] = scale * g
				}
				ac.BackwardPolicy(gLogits)
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
		for i, s := range steps {
			v := ac.ForwardValue(s.Obs)
			diff := v - ret[i]
			loss += diff * diff
			ac.BackwardValue(2 * diff / n)
		}
		stats.ValueLoss = loss / n
		if p.cfg.MaxGradNorm > 0 {
			nn.ClipGrads(ac.ValueParams(), p.cfg.MaxGradNorm)
		}
		p.criticOpt.Step(ac.ValueParams())
	}
	return stats, nil
}
