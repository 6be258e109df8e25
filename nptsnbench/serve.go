package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/obsv"
	"repro/internal/scenarios"
	"repro/internal/serialize"
	"repro/internal/service"
	"repro/internal/zoo"
)

// family names one scenario-family instance with its flow count.
type family struct {
	Name   string
	ES, SW int
	Flows  int
}

func (f family) String() string { return fmt.Sprintf("%s-%des-%dsw/%df", f.Name, f.ES, f.SW, f.Flows) }

// spec builds the family instance's problem spec with flows drawn from
// flowSeed.
func (f family) spec(flowSeed int64) (serialize.ProblemJSON, error) {
	s, err := scenarios.Family(f.Name, f.ES, f.SW)
	if err != nil {
		return serialize.ProblemJSON{}, err
	}
	rec := &nbf.StatelessRecovery{}
	prob := s.Problem(s.RandomFlows(f.Flows, flowSeed), rec, 1e-6)
	return serialize.EncodeProblem(prob, rec.Name()), nil
}

// decodeSpec decodes a spec with the registry the service uses.
func decodeSpec(spec serialize.ProblemJSON) (*core.Problem, error) {
	return serialize.DecodeProblem(spec, nbf.NewRegistry())
}

// doneSink is the service's Options.Events sink. It stamps the time each
// job reaches a terminal state — job_done and job_cache_hit are emitted
// after the plan-cache insert, so the stamp is when the answer exists — and
// wakes whoever waits on the job.
type doneSink struct {
	mu      sync.Mutex
	at      map[string]time.Time
	state   map[string]string
	waiters map[string]chan struct{}
}

func newDoneSink() *doneSink {
	return &doneSink{at: map[string]time.Time{}, state: map[string]string{}, waiters: map[string]chan struct{}{}}
}

func (d *doneSink) Emit(e obsv.Event) error {
	switch e.Type {
	case service.EventDone, service.EventCacheHit, service.EventFailed, service.EventCancelled:
	default:
		return nil
	}
	now := time.Now()
	id := e.Msg
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, seen := d.at[id]; seen {
		return nil
	}
	d.at[id] = now
	d.state[id] = e.Type
	if ch, ok := d.waiters[id]; ok {
		close(ch)
		delete(d.waiters, id)
	}
	return nil
}

// wait blocks until job id is terminal or ctx ends, and returns when it
// became terminal and the event type.
func (d *doneSink) wait(ctx context.Context, id string) (time.Time, string, error) {
	d.mu.Lock()
	if t, ok := d.at[id]; ok {
		st := d.state[id]
		d.mu.Unlock()
		return t, st, nil
	}
	ch, ok := d.waiters[id]
	if !ok {
		ch = make(chan struct{})
		d.waiters[id] = ch
	}
	d.mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
		return time.Time{}, "", fmt.Errorf("job %s: %w", id, ctx.Err())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.at[id], d.state[id], nil
}

// progressLog is the service's Options.Progress observer in traced runs.
type progressLog struct {
	mu     sync.Mutex
	epochs map[string][]progressEntry
}

type progressEntry struct {
	At    time.Time
	Stats core.EpochStats
}

func (p *progressLog) observe(id string, es core.EpochStats) {
	now := time.Now()
	p.mu.Lock()
	p.epochs[id] = append(p.epochs[id], progressEntry{At: now, Stats: es})
	p.mu.Unlock()
}

// benchServer is one life of a zoo-armed planning service on a loopback
// listener.
type benchServer struct {
	journal  string // "" when the service keeps everything in memory
	mgr      *service.Manager
	srv      *http.Server
	url      string
	sink     *doneSink
	progress *progressLog
	client   *http.Client
	served   chan error
}

// serviceWorkers is the service's job concurrency: one job per core.
const serviceWorkers = 2

// startServer boots the service with the given zoo, journaling into a
// fresh directory when journal is set.
func startServer(o opts, z *zoo.Zoo, traced, journal bool) (*benchServer, error) {
	bs := &benchServer{sink: newDoneSink()}
	if journal {
		dir, err := o.tempDir("journal-")
		if err != nil {
			return nil, err
		}
		bs.journal = dir
	}
	reg := obsv.NewRegistry()
	opt := service.Options{
		Workers:   serviceWorkers,
		QueueSize: 1 << 14,
		Dir:       bs.journal,
		Zoo:       z,
		Metrics:   reg,
		Events:    bs.sink,
	}
	if traced {
		bs.progress = &progressLog{epochs: map[string][]progressEntry{}}
		opt.Progress = bs.progress.observe
	}
	var err error
	bs.mgr, err = service.New(opt)
	if err != nil {
		os.RemoveAll(bs.journal)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		bs.mgr.Shutdown(context.Background())
		os.RemoveAll(bs.journal)
		return nil, err
	}
	bs.url = "http://" + ln.Addr().String()
	bs.srv = &http.Server{Handler: service.NewMux(bs.mgr, reg), ReadHeaderTimeout: 10 * time.Second}
	bs.served = make(chan error, 1)
	go func() { bs.served <- bs.srv.Serve(ln) }()
	n := runtime.NumCPU()
	bs.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
	}
	return bs, nil
}

// close stops the listener and the engine, then deletes any journal.
func (bs *benchServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errHTTP := bs.srv.Shutdown(ctx)
	if err := <-bs.served; err != nil && !errors.Is(err, http.ErrServerClosed) && errHTTP == nil {
		errHTTP = err
	}
	bs.client.CloseIdleConnections()
	errMgr := bs.mgr.Shutdown(ctx)
	os.RemoveAll(bs.journal)
	return errors.Join(errHTTP, errMgr)
}

// submitResult is one POST /v1/jobs as the client saw it.
type submitResult struct {
	Code   int
	Status service.Status
	Sent   time.Time
	Resp   time.Time
}

// submit posts one pre-encoded request without retrying: a 429 is
// reported to the caller as a refusal.
func (bs *benchServer) submit(ctx context.Context, body []byte) (submitResult, error) {
	r := submitResult{Sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, bs.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := bs.client.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r.Resp = time.Now()
	r.Code = resp.StatusCode
	if err != nil {
		return r, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &r.Status); err != nil {
			return r, fmt.Errorf("submit response: %w", err)
		}
	}
	return r, nil
}

// getJSON fetches path into out and returns the round-trip time.
func (bs *benchServer) getJSON(ctx context.Context, path string, out interface{}) (time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, bs.url+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := bs.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return d, json.Unmarshal(data, out)
}

// scrape reads the plain counters and histogram sums of /metrics.
func (bs *benchServer) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, bs.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := bs.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// pretrained is one zoo policy the setup trained.
type pretrained struct {
	Spec    serialize.ProblemJSON
	Weights [][]float64
}

// pretrainZoo trains one policy per family instance with the serving
// geometry of params and stores it in a fresh zoo directory.
func pretrainZoo(o opts, fams []family, params service.PlanParams, epochs int) (*zoo.Zoo, string, []pretrained, error) {
	dir, err := o.tempDir("zoo-")
	if err != nil {
		return nil, "", nil, err
	}
	fail := func(err error) (*zoo.Zoo, string, []pretrained, error) {
		os.RemoveAll(dir)
		return nil, "", nil, err
	}
	z, _, err := zoo.Open(dir)
	if err != nil {
		return fail(err)
	}
	var out []pretrained
	for i, f := range fams {
		spec, err := f.spec(fixedSeed*1000 + int64(i))
		if err != nil {
			return fail(err)
		}
		prob, err := decodeSpec(spec)
		if err != nil {
			return fail(err)
		}
		cfg := params.EffectiveConfig()
		geo, err := zoo.GeometryOf(prob, cfg)
		if err != nil {
			return fail(err)
		}
		cfg.MaxEpoch = epochs
		cfg.Workers = serviceWorkers
		pl, err := core.NewPlanner(prob, cfg)
		if err != nil {
			return fail(err)
		}
		rep, err := pl.Plan()
		if err != nil {
			return fail(fmt.Errorf("pretrain %s: %w", f, err))
		}
		e := zoo.Entry{Name: f.String(), Geometry: geo, Features: zoo.FeaturesOf(prob), TrainedEpochs: len(rep.Epochs)}
		if rep.Best != nil {
			e.BestCost = rep.Best.Cost
		}
		if _, err := z.Add(e, rep.FinalWeights); err != nil {
			return fail(err)
		}
		out = append(out, pretrained{Spec: spec, Weights: rep.FinalWeights})
	}
	return z, dir, out, nil
}

// request is one generated submission and everything observed about it.
type request struct {
	Kind string // what the request is: "cache", "warm", "zoo", "fresh", "delta"
	// Expect is the provenance the answer should carry ("cache", "zoo",
	// "warm", "trained"), and ExpectTrained whether it should have run at
	// least one training epoch.
	Expect        string
	ExpectTrained bool
	Req           service.Request
	Body          []byte
	// Spec is the self-contained problem the request asks to plan (the
	// derived problem for deltas), used by the correctness gate.
	Spec serialize.ProblemJSON

	Due    time.Time
	Sub    submitResult
	SubErr error
	Done   time.Time
	Final  string // terminal event type
	Status service.Status
	Result *service.Result
	Check  planCheck
	ResDur time.Duration
}

func (r *request) ok() bool { return r.Final == service.EventDone || r.Final == service.EventCacheHit }

// refused reports a submission the service turned away with 429.
func (r *request) refused() bool { return r.Sub.Code == http.StatusTooManyRequests }

// accepted reports a submission the service took (202, or 200 cache hit).
func (r *request) accepted() bool {
	return r.SubErr == nil && (r.Sub.Code == http.StatusOK || r.Sub.Code == http.StatusAccepted)
}

// newRequest encodes a request and resolves the problem it asks for.
func newRequest(kind, expect string, trained bool, req service.Request, base serialize.ProblemJSON) (*request, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	spec := req.Problem
	if req.IsDelta() {
		if spec, err = serialize.ApplyDelta(base, *req.Delta); err != nil {
			return nil, err
		}
	}
	return &request{Kind: kind, Expect: expect, ExpectTrained: trained, Req: req, Body: body, Spec: spec}, nil
}

// finishRequests waits for every accepted request to end, then fetches
// each one's status and result and runs the correctness gate on it.
func finishRequests(bs *benchServer, reqs []*request, tr *tracer, nbfc *nbfCounter) (gate, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var g gate
	for _, r := range reqs {
		g.Sent++
		if r.refused() {
			g.Refused++
			continue
		}
		if !r.accepted() {
			g.Failed++
			continue
		}
		done, final, err := bs.sink.wait(ctx, r.Sub.Status.ID)
		if err != nil {
			return g, err
		}
		r.Done, r.Final = done, final
		if _, err := bs.getJSON(ctx, "/v1/jobs/"+r.Sub.Status.ID, &r.Status); err != nil {
			return g, err
		}
		if !r.ok() {
			g.Failed++
			continue
		}
		var res service.Result
		d, err := bs.getJSON(ctx, "/v1/jobs/"+r.Sub.Status.ID+"/result", &res)
		if err != nil {
			return g, err
		}
		r.Result, r.ResDur = &res, d
		if tierOf(r) != r.Expect || r.Expect != service.ProvenanceCache && r.ExpectTrained != (res.Epochs > 0) {
			g.TierMismatch++
		}
		if res.Solution == nil {
			g.Failed++
			continue
		}
		prob, err := decodeSpec(r.Spec)
		if err != nil {
			return g, err
		}
		if nbfc != nil {
			prob.NBF = probeNBF(prob.NBF, nbfc)
		}
		samples := r.Req.CertifySamples
		seed := r.Req.Params.Seed
		r.Check = checkPlan(ctx, prob, *res.Solution, res.Cost, seed, samples, tr, r.Sub.Status.ID)
		g.count(r.Check)
	}
	return g, nil
}

// tierOf is the provenance tier the service reported for a request.
func tierOf(r *request) string {
	if r.Status.Provenance == service.ProvenanceCache {
		return service.ProvenanceCache
	}
	if r.Result != nil && r.Result.Provenance != "" {
		return r.Result.Provenance
	}
	return r.Status.Provenance
}

// latencies returns each request's latency in ms from its start (the due
// time in an open loop, the send time in a closed one) to its terminal
// event; failed and refused requests count as +Inf.
func latencies(reqs []*request, from func(*request) time.Time) []float64 {
	var out []float64
	for _, r := range reqs {
		if !r.ok() || r.Check.Reason != "" || !r.Check.Certified {
			out = append(out, inf)
			continue
		}
		out = append(out, r.Done.Sub(from(r)).Seconds()*1e3)
	}
	return out
}

var inf = math.Inf(1)

// wantTier is the provenance tier a request should be answered from:
// "trained" when it should run at least one training epoch, whatever seed
// it starts from, and otherwise the provenance it should carry.
func (r *request) wantTier() string {
	if r.ExpectTrained {
		return service.ProvenanceTrained
	}
	return r.Expect
}

// tierP50 is the serving workloads' end-to-end latency in ms: the geometric
// mean, over the tiers the stream's requests should be answered from, of
// each tier's median latency. Every tier weighs the same whatever its share
// of the stream, so the assumed traffic mix decides neither which tier the
// figure follows nor by how much; with one tier it is that tier's median.
// It is +Inf when more than half of some tier's requests failed.
func tierP50(reqs []*request, from func(*request) time.Time) float64 {
	byTier := map[string][]*request{}
	var tiers []string
	for _, r := range reqs {
		t := r.wantTier()
		if _, ok := byTier[t]; !ok {
			tiers = append(tiers, t)
		}
		byTier[t] = append(byTier[t], r)
	}
	if len(tiers) == 0 {
		return 0
	}
	sort.Strings(tiers)
	var logSum float64
	for _, t := range tiers {
		p := median(latencies(byTier[t], from))
		if math.IsInf(p, 1) {
			return inf
		}
		logSum += math.Log(p)
	}
	return math.Exp(logSum / float64(len(tiers)))
}

// answer is what the service did with one request, for comparing runs.
type answer struct {
	// State is "refused", "unsent" (the submission failed) or the job's
	// terminal event type.
	State     string
	Tier      string
	Cost      float64
	Epochs    int
	Certified bool
}

// answers summarizes what happened to every request of a run.
func answers(reqs []*request) []answer {
	out := make([]answer, len(reqs))
	for i, r := range reqs {
		a := answer{State: r.Final, Certified: r.Check.Certified}
		switch {
		case r.refused():
			a.State = "refused"
		case !r.accepted():
			a.State = "unsent"
		}
		if r.Result != nil {
			a.Tier, a.Cost, a.Epochs = tierOf(r), r.Result.Cost, r.Result.Epochs
		}
		out[i] = a
	}
	return out
}

// sameAnswers compares two runs of one request stream request by request
// and reports the first difference ("" when none). A closed loop cut by the
// window sends as many requests as fit, so with windowed set the runs are
// compared over the requests both sent; otherwise they must have sent the
// same requests.
func sameAnswers(a, b []answer, windowed bool) string {
	if !windowed && len(a) != len(b) {
		return fmt.Sprintf("%d vs %d requests", len(a), len(b))
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return ""
}

// serviceLayers fills the per-layer metrics the service exposes from the
// client side, its status timestamps, /metrics deltas and the progress
// observer.
func serviceLayers(m map[string]float64, bs *benchServer, reqs []*request, before, after map[string]float64) {
	var submit, result, wait []float64
	runs := map[string][]float64{}
	tiers := map[string][]float64{}
	var warm, warmSolved float64
	for _, r := range reqs {
		if r.accepted() {
			submit = append(submit, r.Sub.Resp.Sub(r.Sub.Sent).Seconds()*1e3)
		}
		if r.Result == nil {
			continue
		}
		result = append(result, r.ResDur.Seconds()*1e3)
		st := r.Status
		tier := tierOf(r)
		if tier == service.ProvenanceWarm && r.Result.Epochs > 0 {
			tier = service.ProvenanceTrained
		}
		if st.StartedAt != nil && st.FinishedAt != nil {
			wait = append(wait, st.StartedAt.Sub(st.SubmittedAt).Seconds()*1e3)
			runs[tier] = append(runs[tier], st.FinishedAt.Sub(*st.StartedAt).Seconds()*1e3)
		}
		tiers[tier] = append(tiers[tier], r.Done.Sub(r.Due).Seconds()*1e3)
		if st.Warm != nil {
			warm++
			if st.Warm.SeedSolved {
				warmSolved++
			}
		}
	}
	m["service.submit_ms"] = median(submit)
	m["service.result_ms"] = median(result)
	m["service.queue_wait_ms"] = median(wait)
	for _, t := range []string{"zoo", "warm", "trained"} {
		m["service.run_ms."+t] = median(runs[t])
	}
	for _, t := range []string{"cache", "zoo", "warm", "trained"} {
		m["service."+t+"_p50_ms"] = median(tiers[t])
	}
	m["core.warm_seed_solved_ratio"] = ratio(warmSolved, warm)
	d := func(name string) float64 { return after[name] - before[name] }
	// Share of zoo rollouts the accept gate took; lookups that found no
	// geometry-compatible policy are not rollouts.
	m["zoo.hit_ratio"] = ratio(d("nptsn_zoo_hits_total"), d("nptsn_zoo_hits_total")+d("nptsn_zoo_rejects_total"))
	rollouts := d("nptsn_zoo_rollout_seconds_count")
	m["zoo.rollout_ms"] = ratio(1e3*d("nptsn_zoo_rollout_seconds_sum"), rollouts)
	m["zoo.env_steps"] = d("nptsn_zoo_env_steps_total")
	hits, misses := d("nptsn_analysis_cache_hits_total"), d("nptsn_analysis_cache_misses_total")
	m["failure.cache_hit_ratio"] = ratio(hits, hits+misses)

	if bs.progress == nil {
		return
	}
	var epochs []float64
	var steps, resets, analyze, pi, n float64
	bs.progress.mu.Lock()
	for _, r := range reqs {
		eps := bs.progress.epochs[r.Sub.Status.ID]
		for i, e := range eps {
			switch {
			case i > 0:
				epochs = append(epochs, e.At.Sub(eps[i-1].At).Seconds())
			case r.Status.StartedAt != nil:
				epochs = append(epochs, e.At.Sub(*r.Status.StartedAt).Seconds())
			}
			steps += float64(e.Stats.EnvSteps)
			resets += float64(e.Stats.EnvResets)
			analyze += e.Stats.AnalysisTime.Seconds()
			pi += float64(e.Stats.PolicyIters)
			n++
		}
	}
	bs.progress.mu.Unlock()
	m["core.epoch_s"] = median(epochs)
	m["core.env_steps"] = steps
	m["core.env_resets"] = resets
	m["failure.analyze_s"] = ratio(analyze, n)
	m["rl.pi_iters"] = ratio(pi, n)
}

// requestSpans records each request as a span from its start to its
// terminal event, with children for the generator's lateness, the submit
// round trip, the queue wait, the run and the completion.
func requestSpans(tr *tracer, reqs []*request, from func(*request) time.Time) {
	for _, r := range reqs {
		if !r.accepted() || r.Done.IsZero() {
			continue
		}
		id := r.Sub.Status.ID
		root := tr.add("request."+r.Kind, 0, id, from(r), r.Done)
		if r.Sub.Sent.After(from(r)) {
			tr.add("loadgen.late", root, id, from(r), r.Sub.Sent)
		}
		tr.add("service.submit", root, id, r.Sub.Sent, r.Sub.Resp)
		st := r.Status
		if st.StartedAt != nil {
			tr.add("service.queue", root, id, st.SubmittedAt, *st.StartedAt)
			if st.FinishedAt != nil {
				tr.add("service.run", root, id, *st.StartedAt, *st.FinishedAt)
				tr.add("service.complete", root, id, *st.FinishedAt, r.Done)
			}
		}
	}
}

// servePhase is one setup, timed window and gate of a serving workload.
type servePhase struct {
	setup  *serveSetup
	sent   []*request
	setupS float64
	gate   gate
	before map[string]float64
	after  map[string]float64
}

// serving is what differs between the serving workloads.
type serving struct {
	// build sets up the system under test and generates the stream.
	build func(traced bool) (*serveSetup, error)
	// drive runs the timed window and returns the requests it sent.
	drive func(*serveSetup) []*request
	// from is when a request's latency starts counting.
	from func(*request) time.Time
	// windowed is set when the window, not the stream, decides how many
	// requests are sent, so two runs send different numbers of them.
	windowed bool
	// params describes the workload for the run record.
	params func(*servePhase) map[string]interface{}
	// replica drives, in traced runs, the layer calls the service makes
	// out of the client's sight, and fills their metrics.
	replica func(*servePhase, *tracer, map[string]float64) error
}

func (w serving) phase(reps int, tr *tracer, nbfc *nbfCounter) (*servePhase, error) {
	traced := tr != nil
	setup, setupS, err := timedSetup(reps, func() (*serveSetup, error) { return w.build(traced) },
		func(s *serveSetup) { s.close() })
	if err != nil {
		return nil, err
	}
	ph := &servePhase{setup: setup, setupS: setupS}
	ctx := context.Background()
	if traced {
		if ph.before, err = setup.bs.scrape(ctx); err != nil {
			setup.close()
			return nil, err
		}
	}
	ph.sent = w.drive(setup)
	ph.gate, err = finishRequests(setup.bs, ph.sent, tr, nbfc)
	if err == nil && traced {
		ph.after, err = setup.bs.scrape(ctx)
	}
	if cerr := setup.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return ph, nil
}

// run measures the workload untraced and, with --trace 1, again traced.
func (w serving) run(o opts) (*outcome, error) {
	reps := setupReps
	if o.Trace {
		reps = 1
	}
	plain, err := w.phase(reps, nil, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		Gate:    plain.gate,
		Metrics: map[string]float64{"setup_s": plain.setupS},
		Params:  w.params(plain),
	}
	m := out.Metrics
	m["p50_gmean_ms"] = tierP50(plain.sent, w.from)
	var costs []float64
	for _, r := range plain.sent {
		if r.Check.Certified {
			costs = append(costs, r.Check.Cost)
		}
	}
	m["plan_cost_mean"] = mean(costs)
	m["certified_frac"] = ratio(float64(plain.gate.Succeeded), float64(plain.gate.Sent))
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	if !o.Trace {
		return out, nil
	}

	// Keep only what the comparison needs, so that the untraced run's
	// requests and plans do not weigh on the traced run's heap.
	want, base := answers(plain.sent), m["p50_gmean_ms"]
	plain = nil
	tr := &tracer{}
	nbfc := &nbfCounter{}
	traced, err := w.phase(1, tr, nbfc)
	if err != nil {
		return nil, err
	}
	if diff := sameAnswers(want, answers(traced.sent), w.windowed); diff != "" {
		return nil, fmt.Errorf("tracing changed an answer: %s", diff)
	}
	m = zeroLayers()
	reqs := traced.sent
	serviceLayers(m, traced.setup.bs, reqs, traced.before, traced.after)
	requestSpans(tr, reqs, w.from)
	lat := latencies(reqs, w.from)
	m["service.p99_ms"] = quantile(lat, 0.99)
	m["service.tier_mismatch"] = float64(traced.gate.TierMismatch)
	m["trace.overhead_frac"] = ratio(tierP50(reqs, w.from)-base, base)
	var late []float64
	for _, r := range reqs {
		if r.accepted() {
			late = append(late, r.Sub.Sent.Sub(w.from(r)).Seconds()*1e3)
		}
	}
	m["loadgen.late_ms"] = quantile(late, 0.99)
	gateLayers(m, reqs, nbfc)
	// The replica's spans are microseconds long at small sizes; start it
	// from a collected heap so that no collection of the run's garbage
	// lands inside them.
	runtime.GC()
	if err := w.replica(traced, tr, m); err != nil {
		return nil, err
	}
	if err := codecLayers(m, reqs, tr); err != nil {
		return nil, err
	}
	out.Spans = tr.all()
	if m["trace.coverage_min"], err = coverageGate(out.Spans); err != nil {
		return nil, err
	}
	m["trace.spans"] = float64(len(out.Spans))
	out.Gate = traced.gate
	out.Metrics = m
	return out, nil
}
