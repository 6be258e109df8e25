package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serialize"
	"repro/internal/service"
)

// trainServeSize is the serve-train traffic and budget.
type trainServeSize struct {
	// Clients is the closed loop's client count; each waits for its reply.
	Clients int
	Zoo     []family
	// Families are the trained geometries, none of which the zoo holds;
	// setup plans one base per family.
	Families       []family
	Params         service.PlanParams
	Samples        int
	PretrainEpochs int
	// Journal persists every job with an fsync'd record.
	Journal bool
}

func trainServeSizeFor(s scale) trainServeSize {
	if s == scaleTiny {
		return trainServeSize{
			Clients:  2,
			Zoo:      []family{{"mesh", 4, 2, 3}},
			Families: []family{{"ring", 5, 3, 4}},
			Samples:  8, PretrainEpochs: 1, Journal: true,
			Params: service.PlanParams{Epochs: 2, Steps: 16, K: 4, MLPWidth: 16, Workers: 1},
		}
	}
	return trainServeSize{
		Journal:  true,
		Clients:  2,
		Zoo:      []family{{"ring", 6, 4, 4}},
		Families: []family{{"dualstar", 8, 4, 6}, {"zonal", 8, 4, 6}},
		Samples:  64, PretrainEpochs: 2,
		Params: service.PlanParams{Epochs: 3, Steps: 64, K: 8, MLPWidth: 64, Workers: 1},
	}
}

// expectedTier predicts how the service answers a delta on base: "" when
// the base plan, pruned to the derived problem, already satisfies it (an
// instant warm solve, which serve-train does not want); "warm" when the
// seed survives but needs training; "trained" when the base plan no longer
// decodes against the derived problem and the service falls back to a
// cold run.
func expectedTier(derived serialize.ProblemJSON, base serialize.SolutionJSON, cfg core.Config) (string, error) {
	prob, err := decodeSpec(derived)
	if err != nil {
		return "", err
	}
	sol, err := serialize.DecodeSolution(base, prob.Connections)
	if err != nil {
		return service.ProvenanceTrained, nil
	}
	cfg.WarmStart = sol
	env, err := core.NewEnv(prob, cfg, cfg.Seed+2)
	if err != nil {
		return "", err
	}
	if env.Solved() {
		return "", nil
	}
	return service.ProvenanceWarm, nil
}

// usedBackboneLinks lists the switch-switch links of a plan.
func usedBackboneLinks(spec serialize.ProblemJSON, sol serialize.SolutionJSON) []serialize.LinkRefJSON {
	isSwitch := map[int]bool{}
	for _, v := range spec.Connections.Vertices {
		if v.Kind == "sw" {
			isSwitch[v.ID] = true
		}
	}
	var out []serialize.LinkRefJSON
	for _, l := range sol.Links {
		if isSwitch[l.U] && isSwitch[l.V] {
			out = append(out, serialize.LinkRefJSON{U: l.U, V: l.V})
		}
	}
	return out
}

// newTrainServeSetup builds serve-train's system under test and its
// request list: fresh specs of geometries the zoo lacks, alternating with
// deltas on the setup bases that add a flow or damage a backbone link the
// base plan uses, kept only when the warm seed does not already solve them.
// The one-to-one alternation is an assumption, since no record of real
// re-planning traffic exists. Fresh specs take the families in turn, and
// delta candidates every pairing of base and delta kind in turn, so that
// every seed sends the same mix and only the drawn flows, links and
// endpoints differ; a run sends too few requests for a drawn mix to settle.
// A pairing whose candidates the warm seed always solves is skipped alike
// for every seed. Every request is of the trained tier, so the end-to-end
// latency (tierP50) is the median over all of them.
func newTrainServeSetup(o opts, sz trainServeSize, traced bool) (*serveSetup, error) {
	params := sz.Params
	params.Seed = fixedSeed
	s, err := bootServing(o, sz.Zoo, sz.Families, params, sz.Samples, sz.PretrainEpochs, traced, sz.Journal)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*serveSetup, error) {
		s.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	seen := uniqueRequests{}
	for _, b := range s.bases {
		if _, err := seen.add(b.Req.Req); err != nil {
			return fail(err)
		}
	}
	cfg := params.EffectiveConfig()
	// A job takes about a second per client, so this many requests outlast
	// the window.
	n := int(math.Ceil(o.Seconds))*3*sz.Clients + 8
	nextID := 1000
	// misses counts consecutive delta candidates the warm seed already
	// solves; after too many, the slot takes a fresh spec instead.
	misses := 0
	// fresh counts the fresh specs generated so far and picks the next
	// family; slot counts the delta candidates and picks the next base and
	// delta kind.
	fresh, slot := 0, 0
	for tries := 0; len(s.reqs) < n; tries++ {
		if tries > 100*n {
			return fail(fmt.Errorf("could not generate %d trained requests", n))
		}
		var r *request
		if len(s.reqs)%2 == 0 || misses >= 50 {
			misses = 0
			f := sz.Families[fresh%len(sz.Families)]
			spec, err := f.spec(rng.Int63n(math.MaxInt32) + 1)
			if err != nil {
				return fail(err)
			}
			req := service.Request{Problem: spec, Params: params, Certify: true, CertifySamples: sz.Samples}
			if ok, err := seen.add(req); err != nil {
				return fail(err)
			} else if !ok {
				continue
			}
			if r, err = newRequest("fresh", service.ProvenanceTrained, true, req, serialize.ProblemJSON{}); err != nil {
				return fail(err)
			}
			fresh++
		} else {
			b := s.bases[slot%len(s.bases)]
			damage := (slot/len(s.bases))%2 == 0
			slot++
			d := &serialize.DeltaJSON{}
			if links := usedBackboneLinks(b.Req.Spec, b.Solution); damage && len(links) > 0 {
				d.DamageLinks = []serialize.LinkRefJSON{links[rng.Intn(len(links))]}
			} else {
				es := make([]int, 0)
				for _, v := range b.Req.Spec.Connections.Vertices {
					if v.Kind == "es" {
						es = append(es, v.ID)
					}
				}
				src := es[rng.Intn(len(es))]
				dst := es[rng.Intn(len(es))]
				for dst == src {
					dst = es[rng.Intn(len(es))]
				}
				period := b.Req.Spec.Flows[0].PeriodNs
				d.AddFlows = []serialize.FlowJSON{{
					ID: nextID, Name: fmt.Sprintf("added-%d", nextID), Src: src, Dsts: []int{dst},
					PeriodNs: period, DeadlineNs: period, FrameSize: 100 + rng.Intn(400),
				}}
				nextID++
			}
			req := service.Request{Base: b.Fingerprint, Delta: d, Params: params, Certify: true, CertifySamples: sz.Samples}
			derived, err := serialize.ApplyDelta(b.Req.Spec, *d)
			if err != nil {
				continue
			}
			tier, err := expectedTier(derived, b.Solution, cfg)
			if err != nil {
				return fail(err)
			}
			if tier == "" {
				misses++
				continue
			}
			if ok, err := seen.add(service.Request{Problem: derived, Params: params, Certify: true, CertifySamples: sz.Samples}); err != nil {
				return fail(err)
			} else if !ok {
				continue
			}
			if r, err = newRequest("delta", tier, true, req, b.Req.Spec); err != nil {
				return fail(err)
			}
		}
		s.reqs = append(s.reqs, r)
	}
	return s, nil
}

// closedLoop runs the clients until the window ends: each takes the next
// request, submits it and waits for its answer before taking another.
// It returns the requests that were sent.
func closedLoop(bs *benchServer, reqs []*request, clients int, window time.Duration) []*request {
	end := time.Now().Add(window)
	var next atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), window+120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				r.Sub, r.SubErr = bs.submit(ctx, r.Body)
				r.Due = r.Sub.Sent
				if !r.accepted() {
					continue
				}
				if _, _, err := bs.sink.wait(ctx, r.Sub.Status.ID); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if n > len(reqs) {
		n = len(reqs)
	}
	return reqs[:n]
}

func sendTime(r *request) time.Time { return r.Sub.Sent }

// runServeTrain is the serve-train workload: a closed loop of clients that
// each wait for their reply, into a journaled, zoo-armed service, every
// request trained with a reduced budget.
func runServeTrain(o opts) (*outcome, error) {
	sz := trainServeSizeFor(o.Scale)
	return serving{
		build: func(traced bool) (*serveSetup, error) { return newTrainServeSetup(o, sz, traced) },
		drive: func(s *serveSetup) []*request {
			return closedLoop(s.bs, s.reqs, sz.Clients, time.Duration(o.Seconds*float64(time.Second)))
		},
		from:     sendTime,
		windowed: true,
		params: func(ph *servePhase) map[string]interface{} {
			return map[string]interface{}{
				"loop": "closed", "clients": sz.Clients, "requests": len(ph.sent),
				"serviceWorkers": serviceWorkers, "journal": sz.Journal,
				"zoo": familyNames(sz.Zoo), "families": familyNames(sz.Families),
				"mix": "fresh specs alternating with add-flow/damage-link deltas (assumed)", "budget": sz.Params,
				"certifySamples": sz.Samples, "pretrainEpochs": sz.PretrainEpochs,
			}
		},
		// Training happens inside the service; one epoch driven from
		// outside on the first request's problem, with the jobs' budget,
		// splits it into exploration and the PPO update.
		replica: func(ph *servePhase, tr *tracer, m map[string]float64) error {
			prob, err := decodeSpec(ph.sent[0].Spec)
			if err != nil {
				return err
			}
			params := sz.Params
			params.Seed = fixedSeed
			rs, err := replicaEpoch(context.Background(), prob, params.EffectiveConfig(), tr)
			if err != nil {
				return err
			}
			replicaMetrics(m, rs)
			return nil
		},
	}.run(o)
}
