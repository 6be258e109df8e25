package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/scenarios"
	"repro/internal/serialize"
)

// trainSize is the train-orion geometry and budget.
type trainSize struct {
	Flows     int
	Steps     int
	GCNHidden int
	MLP       int
	K         int
	Iters     int
	// EpochRef is the reference epoch length the measured-epoch count is
	// sized by, so that the count depends on --seconds only, never on the
	// speed of the code under test.
	EpochRef float64
	Samples  int
}

func trainSizeFor(s scale) trainSize {
	if s == scaleTiny {
		return trainSize{Flows: 2, Steps: 32, GCNHidden: 4, MLP: 8, K: 4, Iters: 2, EpochRef: 1, Samples: 8}
	}
	// Table II widths (GCN-2×32, MLP 256², K = 16) and SpinningUp's 80/80
	// PPO iterations; 32 steps per epoch keeps an epoch near 2.5 s on two
	// cores, so that the median is over enough epochs to ride out a burst
	// of interference on a shared machine.
	return trainSize{Flows: 20, Steps: 32, GCNHidden: 32, MLP: 256, K: 16, Iters: 80, EpochRef: 2.5, Samples: 64}
}

// orionSetup is everything train-orion builds before its first epoch.
type orionSetup struct {
	prob *core.Problem
	spec serialize.ProblemJSON
	cfg  core.Config
}

func newORIONSetup(sz trainSize, epochs int) (*orionSetup, error) {
	s, err := scenarios.ORION()
	if err != nil {
		return nil, err
	}
	prob := s.Problem(s.RandomFlows(sz.Flows, fixedSeed), &nbf.StatelessRecovery{}, 1e-6)
	cfg := core.DefaultConfig()
	cfg.GCNHidden = sz.GCNHidden
	cfg.MLPHidden = []int{sz.MLP, sz.MLP}
	cfg.K = sz.K
	cfg.TrainPiIters, cfg.TrainVIters = sz.Iters, sz.Iters
	cfg.MaxStep = sz.Steps
	cfg.MaxEpoch = epochs
	cfg.Workers = 2
	cfg.AnalyzerCacheSize = 1 << 16
	cfg.Seed = fixedSeed
	// Build what the first epoch needs, the way the planner does: the
	// planner itself, the networks, and one environment per worker (each
	// runs the failure analysis of the empty network).
	if _, err := core.NewPlanner(prob, cfg); err != nil {
		return nil, err
	}
	if _, _, err := replicaNets(prob, cfg); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		if _, err := core.NewEnv(prob, cfg, cfg.Seed+int64(i)*104729+2); err != nil {
			return nil, err
		}
	}
	return &orionSetup{prob: prob, spec: serialize.EncodeProblem(prob, prob.NBF.Name()), cfg: cfg}, nil
}

// epochRecord is one planner epoch as observed through the Config hooks.
type epochRecord struct {
	Start, End time.Time // first ExploreHook call, Progress call
	Stats      core.EpochStats
}

// trainRun is one planner run.
type trainRun struct {
	Epochs []epochRecord
	Best   *core.Solution
	NBF    *nbfCounter
}

// runPlanner trains on the problem for cfg.MaxEpoch epochs. Untraced, it
// observes only Config.Progress (epoch ends); traced, it also times epoch
// starts through Config.ExploreHook, counts recovery simulations through
// an NBF probe, and records a span per epoch.
func runPlanner(ctx context.Context, base *core.Problem, cfg core.Config, tr *tracer) (*trainRun, error) {
	prob := *base
	run := &trainRun{}
	var mu sync.Mutex
	var curStart time.Time
	if tr != nil {
		run.NBF = &nbfCounter{}
		prob.NBF = probeNBF(base.NBF, run.NBF)
		cfg.ExploreHook = func(context.Context, int, int) {
			now := time.Now()
			mu.Lock()
			if curStart.IsZero() || now.Before(curStart) {
				curStart = now
			}
			mu.Unlock()
		}
	}
	begin := time.Now()
	cfg.Progress = func(es core.EpochStats) {
		now := time.Now()
		mu.Lock()
		start := curStart
		if start.IsZero() {
			start = begin
			if n := len(run.Epochs); n > 0 {
				start = run.Epochs[n-1].End
			}
		}
		run.Epochs = append(run.Epochs, epochRecord{Start: start, End: now, Stats: es})
		curStart = time.Time{}
		mu.Unlock()
	}
	root := tr.reserve("planner.run", 0, "", begin)
	pl, err := core.NewPlanner(&prob, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := pl.PlanContext(ctx)
	tr.finish(root, time.Now())
	if err != nil {
		return nil, err
	}
	for _, e := range run.Epochs {
		tr.add("core.epoch", root, "", e.Start, e.End)
	}
	run.Best = rep.Best
	return run, nil
}

// epochSeconds returns the wall time of every epoch after the first (the
// first fills the verdict cache and sizes the scratch arenas).
func (r *trainRun) epochSeconds() []float64 {
	var out []float64
	for i, e := range r.Epochs {
		if i == 0 {
			continue
		}
		start := e.Start
		if start.IsZero() || start.Before(r.Epochs[i-1].End) {
			start = r.Epochs[i-1].End
		}
		out = append(out, e.End.Sub(start).Seconds())
	}
	return out
}

// sameTraining reports the first difference between two runs of the same
// problem, configuration and seed ("" when identical).
func sameTraining(a, b *trainRun) string {
	if len(a.Epochs) != len(b.Epochs) {
		return fmt.Sprintf("%d vs %d epochs", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		x, y := a.Epochs[i].Stats, b.Epochs[i].Stats
		if x.BestCost != y.BestCost || x.NBFCalls != y.NBFCalls || x.EnvSteps != y.EnvSteps ||
			x.PolicyIters != y.PolicyIters || x.Reward != y.Reward {
			return fmt.Sprintf("epoch %d: best %v/%v nbf %d/%d steps %d/%d", x.Epoch,
				x.BestCost, y.BestCost, x.NBFCalls, y.NBFCalls, x.EnvSteps, y.EnvSteps)
		}
	}
	if (a.Best == nil) != (b.Best == nil) || a.Best != nil && a.Best.Cost != b.Best.Cost {
		return "best plans differ"
	}
	return ""
}

// runTrainORION is the train-orion workload: offline training on ORION at
// Table II widths with two exploration workers and the verdict cache on,
// timed over whole epochs. It trains one fixed instance (see fixedSeed), so
// --seed does not change its input; the epoch count follows --seconds.
func runTrainORION(o opts) (*outcome, error) {
	sz := trainSizeFor(o.Scale)
	measured := int(math.Round(o.Seconds / sz.EpochRef))
	if measured < 3 {
		measured = 3
	}
	epochs := 1 + measured
	// Building ORION takes milliseconds, so a median over many repetitions
	// keeps setup_s from following a burst of scheduler noise.
	setup, setupS, err := timedSetup(40, func() (*orionSetup, error) {
		return newORIONSetup(sz, epochs)
	}, func(*orionSetup) {})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	out := &outcome{
		Metrics: map[string]float64{"setup_s": setupS},
		Params: map[string]interface{}{
			"scenario": "orion", "flows": sz.Flows, "gcn": fmt.Sprintf("2x%d", sz.GCNHidden),
			"mlp": fmt.Sprintf("%dx%d", sz.MLP, sz.MLP), "k": sz.K, "ppoIters": sz.Iters,
			"stepsPerEpoch": sz.Steps, "epochs": epochs, "workers": setup.cfg.Workers,
			"verdictCache": setup.cfg.AnalyzerCacheSize, "certifySamples": sz.Samples,
		},
	}

	plain, err := runPlanner(ctx, setup.prob, setup.cfg, nil)
	if err != nil {
		return nil, err
	}
	secs := plain.epochSeconds()
	out.Gate.Sent = 1
	var tr *tracer
	if o.Trace {
		tr = &tracer{}
	}
	var nbfc *nbfCounter
	checkProb := *setup.prob
	if tr != nil {
		nbfc = &nbfCounter{}
		checkProb.NBF = probeNBF(setup.prob.NBF, nbfc)
	}
	var pc planCheck
	if plain.Best == nil {
		out.Gate.Failed = 1
	} else {
		pc = checkPlan(ctx, &checkProb, serialize.EncodeSolution(plain.Best), plain.Best.Cost, setup.cfg.Seed, sz.Samples, tr, "")
		out.Gate.count(pc)
	}
	out.Metrics["p50_gmean_ms"] = 1e3 * median(secs)
	out.Metrics["plan_cost_mean"] = pc.Cost
	out.Metrics["certified_frac"] = ratio(float64(out.Gate.Succeeded), float64(out.Gate.Sent))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.Metrics["peak_rss_mb"] = rss
	if !o.Trace {
		return out, nil
	}

	traced, err := runPlanner(ctx, setup.prob, setup.cfg, tr)
	if err != nil {
		return nil, err
	}
	if diff := sameTraining(plain, traced); diff != "" {
		return nil, fmt.Errorf("tracing changed the training result: %s", diff)
	}
	rs, err := replicaEpoch(ctx, setup.prob, setup.cfg, tr)
	if err != nil {
		return nil, err
	}
	m := zeroLayers()
	tsecs := traced.epochSeconds()
	m["core.epoch_s"] = median(tsecs)
	m["trace.overhead_frac"] = ratio(median(tsecs)-median(secs), median(secs))
	var steps, resets, analyze, hits, misses, pi float64
	for i, e := range traced.Epochs {
		steps += float64(e.Stats.EnvSteps)
		resets += float64(e.Stats.EnvResets)
		hits += float64(e.Stats.AnalysisCacheHits)
		misses += float64(e.Stats.AnalysisCacheMisses)
		pi += float64(e.Stats.PolicyIters)
		if i > 0 {
			analyze += e.Stats.AnalysisTime.Seconds()
		}
	}
	m["core.env_steps"] = steps
	m["core.env_resets"] = resets
	m["rl.pi_iters"] = pi / float64(len(traced.Epochs))
	m["failure.analyze_s"] = analyze / float64(len(tsecs))
	m["failure.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["nbf.calls"] = float64(traced.NBF.calls.Load() + nbfc.calls.Load())
	m["nbf.recover_us"] = traced.NBF.recoverUS()
	m["certify.audit_ms"] = 1e3 * pc.Audit.Seconds()
	replicaMetrics(m, rs)
	dec, enc, err := codecTimes([]serialize.ProblemJSON{setup.spec}, []*core.Solution{plain.Best}, tr)
	if err != nil {
		return nil, err
	}
	m["serialize.decode_us"], m["serialize.encode_us"] = dec, enc
	out.Spans = tr.all()
	if m["trace.coverage_min"], err = coverageGate(out.Spans); err != nil {
		return nil, err
	}
	m["trace.spans"] = float64(len(out.Spans))
	out.Metrics = m
	return out, nil
}
