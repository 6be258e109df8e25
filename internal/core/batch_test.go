package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/rl"
)

// TestForwardPolicyValueBatchMatchesSingle is the contract the batched
// exploration path stands on: forwarding a batch of distinct observations
// must reproduce, per observation, the exact bits of individual
// ForwardPolicy/ForwardValue calls. The trunk runs per observation inside
// the batched call and the dense heads compute rows independently, so any
// divergence here is a kernel bug, not rounding.
func TestForwardPolicyValueBatchMatchesSingle(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	soag, err := NewSOAG(prob, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(prob, cfg.K)
	nets, err := NewNets(rand.New(rand.NewSource(17)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Distinct observations from states along a greedy rollout.
	env, err := NewEnv(prob, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	batch := []*Obs{env.Observation()}
	for len(batch) < 5 {
		act := -1
		for i, ok := range env.Mask() {
			if ok {
				act = i
				break
			}
		}
		if act < 0 {
			break
		}
		if _, _, err := env.Step(act); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, env.Observation())
	}
	if len(batch) < 2 {
		t.Fatalf("rollout produced only %d observations", len(batch))
	}

	// Single-call references, copied out of the borrowed scratch.
	wantLogits := make([][]float64, len(batch))
	wantValues := make([]float64, len(batch))
	for i, o := range batch {
		wantLogits[i] = append([]float64(nil), nets.ForwardPolicy(o)...)
		wantValues[i] = nets.ForwardValue(o)
	}

	logits := make([][]float64, len(batch))
	for i := range logits {
		logits[i] = make([]float64, soag.ActionSpaceSize())
	}
	values := make([]float64, len(batch))
	nets.ForwardPolicyValueBatch(batch, logits, values)

	for i := range batch {
		if values[i] != wantValues[i] {
			t.Fatalf("obs %d: batched value %v != single %v (must be bit-identical)", i, values[i], wantValues[i])
		}
		for j := range logits[i] {
			if logits[i][j] != wantLogits[i][j] {
				t.Fatalf("obs %d logit %d: batched %v != single %v (must be bit-identical)", i, j, logits[i][j], wantLogits[i][j])
			}
		}
	}
}

// TestBatchedExplorationMatchesUnbatched is the differential determinism
// suite for the exploration barrier: with per-worker RNG streams and
// bit-identical batched forwards, training with the policy batcher must
// reproduce the unbatched trajectory exactly — same rewards, losses,
// counts and best cost — across seeds and worker counts.
func TestBatchedExplorationMatchesUnbatched(t *testing.T) {
	prob := tinyProblem(t)
	for _, seed := range []int64{1, 23} {
		for _, workers := range []int{1, 2, 4} {
			cfg := tinyConfig()
			cfg.Seed = seed
			cfg.Workers = workers
			unbatched := cfg
			unbatched.UnbatchedExploration = true
			want := planOnce(t, prob, unbatched)
			got := planOnce(t, prob, cfg)
			assertSameTrajectory(t, fmt.Sprintf("seed=%d workers=%d", seed, workers), want, got)
		}
	}
}

// TestBatchedTrainingPassesDifferential pins the contract the PPO update
// stands on: ForwardPolicyBatch/BackwardPolicyBatch over a subset of rows,
// and ForwardValueBatch/BackwardValueBatch over all of them, must produce
// the exact outputs and gradients of single-observation passes over the
// same rows in order — for the GCN and GAT trunks and the trunk-less
// (GCN-0) network. Run under -cpu 1,2,4 it also checks that spreading the
// rows over goroutines changes nothing.
func TestBatchedTrainingPassesDifferential(t *testing.T) {
	prob := tinyProblem(t)
	for _, tc := range []struct {
		name   string
		gat    bool
		layers int
	}{{"gcn2", false, 2}, {"gat2", true, 2}, {"gcn0", false, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.UseGAT, cfg.GCNLayers = tc.gat, tc.layers
			cfg.MLPHidden = []int{64, 64}
			soag, err := NewSOAG(prob, cfg.K)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *Nets {
				nets, err := NewNets(rand.New(rand.NewSource(23)), NewEncoder(prob, cfg.K), soag.ActionSpaceSize(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return nets
			}
			single, batched := build(), build()

			env, err := NewEnv(prob, cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			var obs []rl.Observation
			for len(obs) < 7 {
				obs = append(obs, env.Observation())
				act := -1
				for i, ok := range env.Mask() {
					if ok && (act < 0 || len(obs)%2 == 0) {
						act = i
					}
				}
				if act < 0 {
					break
				}
				if _, _, err := env.Step(act); err != nil {
					t.Fatal(err)
				}
			}
			// Repeat the rollout's observations so that the batch is large
			// enough for the dense layers to split it across goroutines.
			for len(obs) < 48 {
				obs = append(obs, obs[len(obs)%7])
			}
			rng := rand.New(rand.NewSource(4))
			a := single.ActionSpace()
			dLogits := nn.NewMatrix(len(obs), a)
			for i := range dLogits.Data {
				dLogits.Data[i] = rng.NormFloat64()
			}
			dValues := make([]float64, len(obs))
			for i := range dValues {
				dValues[i] = rng.NormFloat64()
			}
			var rows []int // every row but each third, as clipped samples drop out
			for i := range obs {
				if i%3 != 1 {
					rows = append(rows, i)
				}
			}

			sameGrads := func(head string, ps, qs []nn.Param) {
				t.Helper()
				for i := range ps {
					for j, g := range ps[i].Grad.Data {
						if q := qs[i].Grad.Data[j]; g != q {
							t.Fatalf("%s grad %s[%d]: single %v, batched %v", head, ps[i].Name, j, g, q)
						}
					}
				}
			}

			nn.ZeroGrads(single.AllParams())
			nn.ZeroGrads(batched.AllParams())
			logits := batched.ForwardPolicyBatch(obs)
			for i, o := range obs {
				for j, l := range single.ForwardPolicy(o) {
					if l != logits.At(i, j) {
						t.Fatalf("row %d logit %d: batched %v, single %v", i, j, logits.At(i, j), l)
					}
				}
			}
			batched.BackwardPolicyBatch(dLogits, rows)
			for _, r := range rows {
				single.ForwardPolicy(obs[r])
				single.BackwardPolicy(dLogits.Data[r*a : (r+1)*a])
			}
			sameGrads("policy", single.PolicyParams(), batched.PolicyParams())

			nn.ZeroGrads(single.AllParams())
			nn.ZeroGrads(batched.AllParams())
			values := batched.ForwardValueBatch(obs)
			for i, o := range obs {
				if v := single.ForwardValue(o); v != values[i] {
					t.Fatalf("row %d value: batched %v, single %v", i, values[i], v)
				}
			}
			batched.BackwardValueBatch(dValues)
			for i, o := range obs {
				single.ForwardValue(o)
				single.BackwardValue(dValues[i])
			}
			sameGrads("value", single.ValueParams(), batched.ValueParams())
		})
	}
}
