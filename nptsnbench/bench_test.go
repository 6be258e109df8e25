package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/serialize"
	"repro/internal/service"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestWorkloadSmoke runs every workload at tiny size, untraced and traced,
// and checks that the last line names every metric with its unit.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "2", "--seconds", "2", "--trace", trace, "--scale", "tiny"}
				if code := run(args, t.TempDir(), &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
				}
				if trace == "0" {
					for _, name := range []string{"setup_s", "p50_gmean_ms", "peak_rss_mb"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

// smallPlan trains a plan for a small family instance.
func smallPlan(t *testing.T) (*core.Problem, *core.Solution) {
	t.Helper()
	spec, err := family{"ring", 5, 3, 4}.spec(7)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := decodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MaxEpoch, cfg.MaxStep, cfg.K, cfg.MLPHidden, cfg.Seed = 4, 64, 4, []int{16, 16}, 3
	pl, err := core.NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == nil {
		t.Fatal("training found no plan")
	}
	return prob, rep.Best
}

func TestGateCountsCorruptedPlanAsFailed(t *testing.T) {
	prob, best := smallPlan(t)
	sol := serialize.EncodeSolution(best)
	ctx := context.Background()

	var g gate
	g.count(checkPlan(ctx, prob, sol, best.Cost, 1, 16, nil, ""))
	if g.Succeeded != 1 {
		t.Fatalf("intact plan: %+v", g)
	}

	// Drop one of the plan's links: an end station loses redundancy or
	// the cost no longer matches, and the gate must say so.
	broken := sol
	broken.Links = append([]serialize.LinkJSON(nil), sol.Links[1:]...)
	pc := checkPlan(ctx, prob, broken, best.Cost, 1, 16, nil, "")
	g = gate{}
	g.count(pc)
	if g.Succeeded != 0 || g.VerifyFailed+g.CertifyFailed != 1 {
		t.Fatalf("corrupted plan counted as %+v (%s)", g, pc.Reason)
	}
}

func TestNBFProbeKeepsNameAndCloner(t *testing.T) {
	c := &nbfCounter{}
	plain := probeNBF(&nbf.StatelessRecovery{}, c)
	if plain.Name() != (&nbf.StatelessRecovery{}).Name() {
		t.Errorf("probe renamed the NBF to %q", plain.Name())
	}
	if _, ok := plain.(nbf.Cloner); ok {
		t.Error("probe of a stateless NBF must not claim nbf.Cloner")
	}
	inner := nbf.NewFlowRedundant(&nbf.StatelessRecovery{})
	cl := probeNBF(inner, c)
	if cl.Name() != inner.Name() {
		t.Errorf("probe renamed the NBF to %q", cl.Name())
	}
	if _, ok := cl.(nbf.Cloner); !ok {
		t.Fatal("probe of a Cloner must forward nbf.Cloner")
	}
	if _, ok := nbf.ForWorker(cl).(*clonerProbe); !ok {
		t.Error("a worker clone must stay probed")
	}

	// Probed analysis returns what the bare NBF returns and counts calls.
	prob, best := smallPlan(t)
	probed := *prob
	probed.NBF = probeNBF(prob.NBF, c)
	before := c.calls.Load()
	if err := core.VerifySolution(&probed, best); err != nil {
		t.Fatalf("probed verification: %v", err)
	}
	if c.calls.Load() == before {
		t.Error("probe counted no recovery simulations")
	}
}

func TestCoverageAndSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(0), End: at(60)},
		{ID: 3, Parent: 1, Name: "b", Start: at(50), End: at(90)},
		{ID: 4, Parent: 1, Name: "outside", Start: at(95), End: at(120)},
	}
	if got := coverage(spans)[1]; got != 0.95 {
		t.Errorf("coverage = %v, want 0.95", got)
	}
	if got := exportSpans(spans)[0].SelfNs; got != int64(5*time.Millisecond) {
		t.Errorf("self time = %v, want 5ms", time.Duration(got))
	}
	if got, name := minCoverage(spans); got != 0.95 || name != "root" {
		t.Errorf("min coverage = %v of %q", got, name)
	}
	if _, err := coverageGate(spans); err != nil {
		t.Errorf("coverage 0.95 refused: %v", err)
	}
	spans[2].End = at(80)
	if _, err := coverageGate(spans); err == nil {
		t.Error("coverage 0.85 accepted")
	}
}

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	xs := []float64{1, 2, 3, inf}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(xs, 1); got != inf {
		t.Errorf("p100 = %v, want +Inf", got)
	}
	if got := finite(inf); got <= 1e300 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}

// TestReplanStreamAtMaxSeconds generates, without serving it, the warm part
// of the longest serve-replan stream --seconds allows, on the full-size
// bases: the bases must have enough distinct flow-removal deltas.
func TestReplanStreamAtMaxSeconds(t *testing.T) {
	sz := replanSizeFor(scaleFull)
	var bases []baseJob
	for i, f := range sz.Bases {
		spec, err := f.spec(fixedSeed*1000 + 100 + int64(i))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, baseJob{Req: &request{Spec: spec}, Fingerprint: fmt.Sprintf("base-%d", i)})
	}
	if _, err := parseFlags([]string{"--seconds", fmt.Sprint(maxSeconds + 1)}, io.Discard); err == nil {
		t.Fatalf("--seconds %d accepted", maxSeconds+1)
	}
	rng := rand.New(rand.NewSource(9))
	warm := 0
	for _, k := range replanKinds(int(math.Round(sz.Rate*maxSeconds)), rng) {
		if k == "warm" {
			warm++
		}
	}
	deltas, err := warmDeltas(bases, warm, sz.params(fixedSeed), sz.Samples, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range deltas {
		key := fmt.Sprint(r.Req.Base, r.Req.Delta.RemoveFlows)
		if seen[key] {
			t.Fatalf("delta %s drawn twice", key)
		}
		seen[key] = true
		if n := len(r.Req.Delta.RemoveFlows); n < 1 || n > maxRemoved {
			t.Fatalf("delta removes %d flows", n)
		}
	}
	if len(deltas) != warm {
		t.Fatalf("%d deltas for %d warm requests", len(deltas), warm)
	}
}

func TestTierP50WeighsTiersEqually(t *testing.T) {
	t0 := time.Unix(0, 0)
	req := func(tier string, ms int) *request {
		return &request{Expect: tier, Due: t0, Done: t0.Add(time.Duration(ms) * time.Millisecond),
			Final: service.EventDone, Check: planCheck{Verified: true, Certified: true}}
	}
	// One tier's share of the stream does not move the figure.
	few := []*request{req("cache", 1), req("zoo", 100), req("zoo", 100), req("zoo", 100)}
	many := []*request{req("cache", 1), req("cache", 1), req("cache", 1), req("zoo", 100)}
	for _, reqs := range [][]*request{few, many} {
		if got := tierP50(reqs, dueTime); math.Abs(got-10) > 1e-9 {
			t.Errorf("tierP50 = %v, want 10", got)
		}
	}
	// Requests that should train form one tier, whatever seed they start
	// from.
	warm, cold := req("warm", 5), req("trained", 20)
	warm.ExpectTrained, cold.ExpectTrained = true, true
	if got := tierP50([]*request{warm, cold, req("trained", 20)}, dueTime); math.Abs(got-20) > 1e-9 {
		t.Errorf("one trained tier: %v, want its median 20", got)
	}
	failed := req("cache", 1)
	failed.Final = service.EventFailed
	if got := tierP50([]*request{failed, req("zoo", 100)}, dueTime); !math.IsInf(got, 1) {
		t.Errorf("tier with every request failed: %v, want +Inf", got)
	}
}

func TestSameAnswersSeesLostRequests(t *testing.T) {
	answered := answer{State: service.EventDone, Tier: "zoo", Cost: 3, Certified: true}
	refused := answer{State: "refused"}
	if d := sameAnswers([]answer{answered}, []answer{refused}, false); d == "" {
		t.Error("an answer lost to a refusal went unnoticed")
	}
	if d := sameAnswers([]answer{answered, answered}, []answer{answered}, false); d == "" {
		t.Error("a shorter open-loop run went unnoticed")
	}
	if d := sameAnswers([]answer{answered, answered}, []answer{answered}, true); d != "" {
		t.Errorf("windowed runs differ only in length: %s", d)
	}
}
