package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serialize"
	"repro/internal/service"
)

// replanSize is the serve-replan traffic and geometry.
type replanSize struct {
	// Rate is the open loop's fixed arrival rate in requests per second.
	Rate float64
	// Zoo are the pretrained geometries; fresh specs of them are zoo
	// rollouts.
	Zoo []family
	// Bases are planned during setup. Their geometry is one the zoo lacks
	// (the zoo is tried before the warm seed), so flow-removal deltas on
	// them are warm instant solves.
	Bases []family
	// Pool is how many extra zoo specs setup plans, so that re-submissions
	// hit the plan cache on zoo plans as well as on trained ones.
	Pool           int
	Params         service.PlanParams
	Samples        int
	PretrainEpochs int
	// Journal persists every job with an fsync'd record. It is off here:
	// on a shared virtual disk the fsync latency drifted this workload's
	// p50 by up to 60% over consecutive runs (12-29% spread across runs,
	// against 8% without it), which would hide any change to the code.
	// serve-train, whose jobs run for a second, keeps it on.
	Journal bool
}

func replanSizeFor(s scale) replanSize {
	if s == scaleTiny {
		return replanSize{
			Rate:  15,
			Zoo:   []family{{"mesh", 4, 2, 3}},
			Bases: []family{{"ring", 5, 3, 6}},
			Pool:  1, Samples: 8, PretrainEpochs: 1,
			Params: service.PlanParams{Epochs: 2, Steps: 16, K: 4, MLPWidth: 16, Workers: 1},
		}
	}
	// 40 requests per second give 1000 requests in a 25 s window, ten of
	// them beyond the p99, and leave both cores mostly idle.
	return replanSize{
		Rate:  40,
		Zoo:   []family{{"ring", 6, 4, 4}, {"mesh", 6, 3, 4}},
		Bases: []family{{"dualstar", 8, 4, 12}, {"zonal", 8, 4, 12}},
		Pool:  4, Samples: 64, PretrainEpochs: 2,
		Params: service.PlanParams{Epochs: 3, Steps: 64, K: 8, MLPWidth: 64, Workers: 1},
	}
}

func (sz replanSize) params(seed int64) service.PlanParams {
	p := sz.Params
	p.Seed = seed
	return p
}

// baseJob is a plan made during setup.
type baseJob struct {
	Req         *request
	Fingerprint string
	Solution    serialize.SolutionJSON
}

// serveSetup is one life of a serving workload's system under test.
type serveSetup struct {
	zooDir string
	pre    []pretrained
	bs     *benchServer
	bases  []baseJob
	pool   []*request // setup requests whose plans are cached
	reqs   []*request // the generated stream
}

func (s *serveSetup) close() error {
	err := s.bs.close()
	os.RemoveAll(s.zooDir)
	return err
}

// planDuringSetup submits requests and waits until each has a plan.
func planDuringSetup(bs *benchServer, reqs []*request) error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, r := range reqs {
		sub, err := bs.submit(ctx, r.Body)
		if err != nil {
			return err
		}
		if !(sub.Code == 200 || sub.Code == 202) {
			return fmt.Errorf("setup submission refused with %d", sub.Code)
		}
		r.Sub = sub
	}
	for _, r := range reqs {
		if _, final, err := bs.sink.wait(ctx, r.Sub.Status.ID); err != nil {
			return err
		} else if final != service.EventDone && final != service.EventCacheHit {
			return fmt.Errorf("setup job %s ended %s", r.Sub.Status.ID, final)
		}
		var res service.Result
		if _, err := bs.getJSON(ctx, "/v1/jobs/"+r.Sub.Status.ID+"/result", &res); err != nil {
			return err
		}
		if res.Solution == nil {
			return fmt.Errorf("setup job %s found no plan", r.Sub.Status.ID)
		}
		r.Result = &res
	}
	return nil
}

// bootServing pretrains the zoo, boots the service and plans the bases.
func bootServing(o opts, zooFams, baseFams []family, params service.PlanParams, samples, pretrainEpochs int, traced, journal bool) (*serveSetup, error) {
	z, zooDir, pre, err := pretrainZoo(o, zooFams, params, pretrainEpochs)
	if err != nil {
		return nil, err
	}
	bs, err := startServer(o, z, traced, journal)
	if err != nil {
		os.RemoveAll(zooDir)
		return nil, err
	}
	s := &serveSetup{zooDir: zooDir, pre: pre, bs: bs}
	var reqs []*request
	for i, f := range baseFams {
		spec, err := f.spec(fixedSeed*1000 + 100 + int64(i))
		if err != nil {
			s.close()
			return nil, err
		}
		r, err := newRequest("base", service.ProvenanceTrained, true, service.Request{
			Problem: spec, Params: params, Certify: true, CertifySamples: samples,
		}, serialize.ProblemJSON{})
		if err != nil {
			s.close()
			return nil, err
		}
		reqs = append(reqs, r)
	}
	if err := planDuringSetup(bs, reqs); err != nil {
		s.close()
		return nil, err
	}
	for _, r := range reqs {
		s.bases = append(s.bases, baseJob{Req: r, Fingerprint: r.Sub.Status.Fingerprint, Solution: *r.Result.Solution})
	}
	return s, nil
}

// uniqueRequests drops requests whose plan-cache fingerprint was already
// seen, so that no generated request is answered from another's plan.
type uniqueRequests map[string]bool

func (u uniqueRequests) add(req service.Request) (bool, error) {
	fp, err := service.Fingerprint(req)
	if err != nil {
		return false, err
	}
	if u[fp] {
		return false, nil
	}
	u[fp] = true
	return true, nil
}

// newReplanSetup builds serve-replan's system under test and its request
// stream. Every request in the stream is one the service should answer
// without training: re-submissions of setup plans (cache), flow-removal
// deltas on setup bases (warm instant solves), and fresh specs of the
// pretrained geometries (zoo rollouts).
func newReplanSetup(o opts, sz replanSize, traced bool) (*serveSetup, error) {
	params := sz.params(fixedSeed)
	s, err := bootServing(o, sz.Zoo, sz.Bases, params, sz.Samples, sz.PretrainEpochs, traced, sz.Journal)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*serveSetup, error) {
		s.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	seen := uniqueRequests{}
	for _, p := range s.pre {
		if _, err := seen.add(service.Request{Problem: p.Spec, Params: params, Certify: true, CertifySamples: sz.Samples}); err != nil {
			return fail(err)
		}
	}
	for _, b := range s.bases {
		if _, err := seen.add(b.Req.Req); err != nil {
			return fail(err)
		}
	}
	freshZoo := func(kind string, rng *rand.Rand) (*request, error) {
		for tries := 0; tries < 1000; tries++ {
			f := sz.Zoo[rng.Intn(len(sz.Zoo))]
			spec, err := f.spec(rng.Int63n(math.MaxInt32) + 1)
			if err != nil {
				return nil, err
			}
			req := service.Request{Problem: spec, Params: params, Certify: true, CertifySamples: sz.Samples}
			if ok, err := seen.add(req); err != nil {
				return nil, err
			} else if ok {
				return newRequest(kind, service.ProvenanceZoo, false, req, serialize.ProblemJSON{})
			}
		}
		return nil, fmt.Errorf("could not draw a fresh zoo spec")
	}
	var pool []*request
	poolRng := rand.New(rand.NewSource(fixedSeed))
	for i := 0; i < sz.Pool; i++ {
		r, err := freshZoo("pool", poolRng)
		if err != nil {
			return fail(err)
		}
		pool = append(pool, r)
	}
	if err := planDuringSetup(s.bs, pool); err != nil {
		return fail(err)
	}
	for _, b := range s.bases {
		pool = append(pool, b.Req)
	}
	s.pool = pool

	kinds := replanKinds(int(math.Round(sz.Rate*o.Seconds)), rng)
	warm := 0
	for _, k := range kinds {
		if k == "warm" {
			warm++
		}
	}
	deltas, err := warmDeltas(s.bases, warm, params, sz.Samples, rng)
	if err != nil {
		return fail(err)
	}
	for _, k := range kinds {
		var r *request
		switch k {
		case "cache":
			p := pool[rng.Intn(len(pool))]
			r = &request{Kind: "cache", Expect: service.ProvenanceCache, Req: p.Req, Body: p.Body, Spec: p.Spec}
		case "warm":
			r, deltas = deltas[0], deltas[1:]
		default:
			r, err = freshZoo("zoo", rng)
		}
		if err != nil {
			return fail(err)
		}
		s.reqs = append(s.reqs, r)
	}
	return s, nil
}

// replanKinds draws the kinds of n serve-replan requests: cache, warm and
// zoo in equal shares, shuffled in blocks of three. The equal shares are an
// assumption, since no record of real re-planning traffic exists; the
// end-to-end latency weighs each tier equally (tierP50), so the shares move
// only the load on the service, not what the latency figure follows.
func replanKinds(n int, rng *rand.Rand) []string {
	kinds := make([]string, 0, n+2)
	for len(kinds) < n {
		block := []string{"cache", "warm", "zoo"}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	return kinds[:n]
}

// maxRemoved is the most flows a warm delta removes. Removing flows keeps
// the base plan valid, so every such delta is an instant warm solve; with
// 12-flow bases, up to four removals give 793 distinct deltas per base.
const maxRemoved = 4

// warmDeltas returns n distinct flow-removal deltas on the bases, each
// removing 1 to maxRemoved flows, drawn without replacement from all of
// them. It fails when the bases do not have n distinct deltas.
func warmDeltas(bases []baseJob, n int, params service.PlanParams, samples int, rng *rand.Rand) ([]*request, error) {
	type removal struct {
		base  int
		flows []int
	}
	var all []removal
	for bi, b := range bases {
		ids := make([]int, len(b.Req.Spec.Flows))
		for i, f := range b.Req.Spec.Flows {
			ids[i] = f.ID
		}
		sort.Ints(ids)
		var pick func(from int, cur []int)
		pick = func(from int, cur []int) {
			if len(cur) > 0 {
				all = append(all, removal{bi, append([]int(nil), cur...)})
			}
			if len(cur) == maxRemoved {
				return
			}
			for i := from; i < len(ids); i++ {
				pick(i+1, append(cur, ids[i]))
			}
		}
		pick(0, nil)
	}
	if n > len(all) {
		return nil, fmt.Errorf("%d warm requests asked for, the bases have only %d distinct flow-removal deltas", n, len(all))
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([]*request, n)
	for i, rm := range all[:n] {
		b := bases[rm.base]
		req := service.Request{
			Base: b.Fingerprint, Delta: &serialize.DeltaJSON{RemoveFlows: rm.flows},
			Params: params, Certify: true, CertifySamples: samples,
		}
		r, err := newRequest("warm", service.ProvenanceWarm, false, req, b.Req.Spec)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// openLoop sends the stream at its due times from at most nproc sender
// goroutines and waits for every request to end.
func openLoop(bs *benchServer, reqs []*request, rate float64) {
	senders := runtime.NumCPU()
	t0 := time.Now().Add(100 * time.Millisecond)
	for i, r := range reqs {
		r.Due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(reqs); i += senders {
				r := reqs[i]
				_ = sleepUntil(ctx, r.Due)
				r.Sub, r.SubErr = bs.submit(ctx, r.Body)
			}
		}(k)
	}
	wg.Wait()
}

func dueTime(r *request) time.Time { return r.Due }

// runServeReplan is the serve-replan workload: an open loop at one fixed
// arrival rate into a zoo-armed service, every request answered
// without training and certified.
func runServeReplan(o opts) (*outcome, error) {
	sz := replanSizeFor(o.Scale)
	return serving{
		build: func(traced bool) (*serveSetup, error) { return newReplanSetup(o, sz, traced) },
		drive: func(s *serveSetup) []*request {
			openLoop(s.bs, s.reqs, sz.Rate)
			return s.reqs
		},
		from: dueTime,
		params: func(ph *servePhase) map[string]interface{} {
			return map[string]interface{}{
				"loop": "open", "rate": sz.Rate, "requests": len(ph.sent),
				"senders": runtime.NumCPU(), "serviceWorkers": serviceWorkers, "journal": sz.Journal,
				"zoo": familyNames(sz.Zoo), "bases": familyNames(sz.Bases), "pool": len(ph.setup.pool),
				"mix": "cache/warm/zoo in shuffled thirds (assumed; latency weighs each tier equally)", "budget": sz.Params, "certifySamples": sz.Samples,
				"pretrainEpochs": sz.PretrainEpochs,
			}
		},
		// The zoo rollout happens inside the service; a greedy rollout of
		// the first pretrained policy on its own spec times the forward
		// pass and the env step it is made of.
		replica: func(ph *servePhase, tr *tracer, m map[string]float64) error {
			p := ph.setup.pre[0]
			prob, err := decodeSpec(p.Spec)
			if err != nil {
				return err
			}
			rs, err := rollout(context.Background(), prob, sz.params(fixedSeed).EffectiveConfig(), p.Weights, 64, tr)
			if err != nil {
				return err
			}
			m["nn.forward_us"] = ratio(rs.Forward.Seconds()*1e6, float64(rs.Observations))
			m["core.env_step_us"] = ratio(rs.Step.Seconds()*1e6, float64(rs.Steps))
			return nil
		},
	}.run(o)
}

func familyNames(fs []family) string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.String()
	}
	return strings.Join(names, ",")
}
