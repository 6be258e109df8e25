package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/serialize"
)

// planCheck is the correctness gate's verdict on one returned plan.
type planCheck struct {
	// Verified is false when the plan does not decode against its problem,
	// fails core.VerifySolution, or its cost differs from the one claimed.
	Verified bool
	// Certified is false when the benchmark's own certifier rejects it.
	Certified bool
	Reason    string
	Cost      float64
	Audit     time.Duration
	// Sol is the decoded plan (nil when it did not decode).
	Sol *core.Solution
}

// checkPlan re-verifies a plan returned for prob: it decodes the solution
// over the problem's connection graph, runs core.VerifySolution, checks the
// claimed cost, and runs an independent certification audit with the job's
// seed and sample count. The audit is timed as a certify span.
func checkPlan(ctx context.Context, prob *core.Problem, sol serialize.SolutionJSON, claimed float64, seed int64, samples int, tr *tracer, req string) planCheck {
	s, err := serialize.DecodeSolution(sol, prob.Connections)
	if err != nil {
		return planCheck{Reason: "decode: " + err.Error()}
	}
	if err := core.VerifySolution(prob, s); err != nil {
		return planCheck{Reason: "verify: " + err.Error()}
	}
	if math.Abs(s.Cost-claimed) > 1e-9*math.Max(1, math.Abs(claimed)) {
		return planCheck{Reason: fmt.Sprintf("cost %v differs from the claimed %v", s.Cost, claimed)}
	}
	c := &certify.Certifier{Prob: prob, Sol: s, Opt: certify.Options{Samples: samples, Seed: seed}}
	start := time.Now()
	cert, err := c.Certify(ctx)
	end := time.Now()
	tr.add("certify.audit", 0, req, start, end)
	pc := planCheck{Verified: true, Cost: s.Cost, Audit: end.Sub(start), Sol: s}
	switch {
	case err != nil:
		pc.Reason = "certify: " + err.Error()
	case !cert.OK():
		pc.Reason = "certificate verdict " + cert.Verdict
	default:
		pc.Certified = true
	}
	return pc
}

// count adds one checked plan to the gate.
func (g *gate) count(pc planCheck) {
	switch {
	case !pc.Verified:
		g.VerifyFailed++
	case !pc.Certified:
		g.CertifyFailed++
	default:
		g.Succeeded++
	}
}
