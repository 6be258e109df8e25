package rl_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/raceflag"
	"repro/internal/rl"
	"repro/internal/rl/rltest"
)

// poisonNets injects NaN into the first `poison` policy backward calls of
// either update path, so that both diverge on their first attempt and the
// watchdog rolls them back.
type poisonNets struct {
	*core.Nets
	poison int
}

func (p *poisonNets) BackwardPolicyBatch(d *nn.Matrix, rows []int) {
	if p.poison > 0 {
		p.poison--
		d = d.Clone()
		for i := range d.Data {
			d.Data[i] = math.NaN()
		}
	}
	p.Nets.BackwardPolicyBatch(d, rows)
}

func (p *poisonNets) BackwardPolicy(d []float64) {
	if p.poison > 0 {
		p.poison--
		d = append([]float64(nil), d...)
		for i := range d {
			d[i] = math.NaN()
		}
	}
	p.Nets.BackwardPolicy(d)
}

// differentialConfig is a reduced-width ORION training configuration whose
// updates exercise early stopping and clipping within three epochs.
func differentialConfig(gat bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.UseGAT = gat
	cfg.GCNHidden = 8
	cfg.MLPHidden = []int{32, 32}
	cfg.K = 8
	cfg.MaxStep = 32
	cfg.Workers = 2
	cfg.TrainPiIters, cfg.TrainVIters = 12, 6
	cfg.ActorLR = 3e-3
	cfg.Seed = 5
	return cfg
}

// TestUpdateMatchesPerSampleReference runs three epochs of real ORION
// exploration and updates two identically initialized networks on each
// epoch's buffer: one with Update, one with the per-sample reference
// update. After every update the weights, the Adam moments, the learning
// rates, every UpdateStats field and the watchdog's report must be equal
// (==, so signed zeros count as equal). Run under -cpu 1,2,4 it checks that
// the result does not depend on GOMAXPROCS.
func TestUpdateMatchesPerSampleReference(t *testing.T) {
	cases := []struct {
		name    string
		gat     bool
		chunk   int     // Update's chunk size; 0 keeps the default
		maxGrad float64 // gradient-norm clip; 0 disables it
		poison  int     // NaN-poisoned policy backward calls per path
	}{
		{name: "gcn"},
		{name: "gat", gat: true},
		{name: "gcn-chunk7-gradclip", chunk: 7, maxGrad: 0.05},
		{name: "gat-chunk5", gat: true, chunk: 5},
		{name: "gcn-rollback", poison: 1},
	}
	prob, err := rltest.ORION(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.chunk > 0 {
				defer rl.SetUpdateChunk(tc.chunk)()
			}
			cfg := differentialConfig(tc.gat)
			batched, err := rltest.Nets(prob, cfg)
			if err != nil {
				t.Fatal(err)
			}
			single, err := rltest.Nets(prob, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pcfg := rltest.PPOConfig(cfg)
			pcfg.MaxGradNorm = tc.maxGrad
			ppoB, err := rl.NewPPO(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			ppoS, err := rl.NewPPO(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			var earlyStops, actorSteps, clipped, masked, rollbacks int
			for epoch := 0; epoch < 3; epoch++ {
				buf, err := rltest.Epoch(prob, cfg, batched, cfg.Seed+int64(epoch)*31)
				if err != nil {
					t.Fatal(err)
				}
				steps, _, _, err := buf.Batch()
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range steps {
					for _, ok := range s.Mask {
						if !ok {
							masked++
							break
						}
					}
				}
				acB := &poisonNets{Nets: batched, poison: tc.poison}
				acS := &poisonNets{Nets: single, poison: tc.poison}
				stB, infoB, errB := ppoB.UpdateWithRecovery(acB, buf, 2)
				stS, infoS, errS := ppoS.ReferenceUpdateWithRecovery(acS, buf, 2)
				if errB != nil || errS != nil {
					t.Fatalf("epoch %d: update errors %v / %v", epoch, errB, errS)
				}
				if stB != stS {
					t.Fatalf("epoch %d: stats differ:\nbatched    %+v\nper-sample %+v", epoch, stB, stS)
				}
				if infoB != infoS {
					t.Fatalf("epoch %d: recovery differs: %+v vs %+v", epoch, infoB, infoS)
				}
				if !reflect.DeepEqual(batched.ExportWeights(), single.ExportWeights()) {
					t.Fatalf("epoch %d: weights differ", epoch)
				}
				if !reflect.DeepEqual(ppoB.ExportState(), ppoS.ExportState()) {
					t.Fatalf("epoch %d: optimizer state differs", epoch)
				}
				if stB.PiIters > 1 {
					actorSteps++
				}
				if stB.EarlyStopped {
					earlyStops++
				}
				if stB.ClipFraction > 0 {
					clipped++
				}
				rollbacks += infoB.Rollbacks
			}
			// The comparison only means something if the epochs reach every
			// branch: masked actions, clipped samples, policy steps taken
			// before an early stop.
			if masked == 0 || earlyStops == 0 || actorSteps == 0 || clipped == 0 {
				t.Fatalf("coverage lost: masked steps %d, early stops %d, updates with actor steps %d, clipped updates %d",
					masked, earlyStops, actorSteps, clipped)
			}
			if want := 3 * min(tc.poison, 1); rollbacks != want {
				t.Fatalf("rollbacks = %d, want %d", rollbacks, want)
			}
		})
	}
}

// TestUpdateAllocBound guards the batched update's scratch discipline: once
// an updater and its networks have sized their buffers, an Update allocates
// the same small number of objects (the batch copies Buffer.Batch returns)
// whatever the number of samples or iterations — nothing per sample, chunk,
// iteration or parallel loop.
func TestUpdateAllocBound(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	prob, err := rltest.ORION(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(steps, iters int) float64 {
		cfg := differentialConfig(false)
		cfg.MaxStep = steps
		cfg.TrainPiIters, cfg.TrainVIters = iters, iters
		cfg.TargetKL = 0 // run every policy iteration
		nets, err := rltest.Nets(prob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := rltest.Epoch(prob, cfg, nets, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		ppo, err := rl.NewPPO(rltest.PPOConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		update := func() {
			if _, err := ppo.Update(nets, buf); err != nil {
				t.Fatal(err)
			}
		}
		update() // size the scratch
		return testing.AllocsPerRun(3, update)
	}
	base := measure(16, 2)
	if base > 3 {
		t.Errorf("%v allocs per update, want at most 3 (Buffer.Batch's copies)", base)
	}
	for _, c := range []struct{ steps, iters int }{{96, 2}, {16, 8}, {96, 8}} {
		if n := measure(c.steps, c.iters); n != base {
			t.Errorf("%d samples, %d iterations: %v allocs per update, want %v as at 16 samples, 2 iterations",
				c.steps, c.iters, n, base)
		}
	}
}
