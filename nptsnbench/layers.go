package main

import (
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/serialize"
)

// zeroLayers returns every per-layer metric at 0; workloads fill in the
// layers they exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// replicaMetrics fills the metrics a benchmark-driven epoch measures.
func replicaMetrics(m map[string]float64, rs replicaStats) {
	m["core.explore_s"] = rs.Explore.Seconds()
	m["rl.update_s"] = rs.Update.Seconds()
	m["rl.update_gflop"] = rs.GFLOP
	m["rl.update_gflops"] = ratio(rs.GFLOP, rs.Update.Seconds())
	m["rl.update_share"] = ratio(rs.Update.Seconds(), (rs.Explore + rs.Update).Seconds())
	m["nn.forward_us"] = ratio(rs.Forward.Seconds()*1e6, float64(rs.Observations))
	m["core.env_step_us"] = ratio(rs.Step.Seconds()*1e6, float64(rs.Steps))
}

// codecReps is how often each codec call is repeated for its median.
const codecReps = 5

// codecTimes times the public codecs on the workload's specs and plans:
// decode is JSON parsing plus serialize.DecodeProblem of a spec (what the
// service does with every submission), encode is serialize.EncodeSolution
// plus JSON encoding of a plan (what it does with every result). Both are
// medians in microseconds.
func codecTimes(specs []serialize.ProblemJSON, sols []*core.Solution, tr *tracer) (decUS, encUS float64, err error) {
	reg := nbf.NewRegistry()
	var dec, enc []float64
	for _, spec := range specs {
		raw, err := json.Marshal(spec)
		if err != nil {
			return 0, 0, err
		}
		for r := 0; r < codecReps; r++ {
			start := time.Now()
			var in serialize.ProblemJSON
			if err := json.Unmarshal(raw, &in); err != nil {
				return 0, 0, err
			}
			if _, err := serialize.DecodeProblem(in, reg); err != nil {
				return 0, 0, err
			}
			end := time.Now()
			tr.add("serialize.decode", 0, "", start, end)
			dec = append(dec, end.Sub(start).Seconds()*1e6)
		}
	}
	for _, s := range sols {
		if s == nil {
			continue
		}
		for r := 0; r < codecReps; r++ {
			start := time.Now()
			if _, err := json.Marshal(serialize.EncodeSolution(s)); err != nil {
				return 0, 0, err
			}
			end := time.Now()
			tr.add("serialize.encode", 0, "", start, end)
			enc = append(enc, end.Sub(start).Seconds()*1e6)
		}
	}
	return median(dec), median(enc), nil
}

// gateLayers fills the metrics the correctness gate measured: the
// benchmark's own certification audits and the recovery simulations they
// ran.
func gateLayers(m map[string]float64, reqs []*request, nbfc *nbfCounter) {
	var audits []float64
	for _, r := range reqs {
		if r.Check.Verified {
			audits = append(audits, r.Check.Audit.Seconds()*1e3)
		}
	}
	m["certify.audit_ms"] = median(audits)
	m["nbf.calls"] = float64(nbfc.calls.Load())
	m["nbf.recover_us"] = nbfc.recoverUS()
}

// codecSample bounds how many of a stream's specs and plans are timed.
const codecSample = 50

// codecLayers times the public codecs on the stream's own specs and plans.
func codecLayers(m map[string]float64, reqs []*request, tr *tracer) error {
	var specs []serialize.ProblemJSON
	var sols []*core.Solution
	for _, r := range reqs {
		if len(specs) < codecSample {
			specs = append(specs, r.Spec)
		}
		if r.Check.Sol != nil && len(sols) < codecSample {
			sols = append(sols, r.Check.Sol)
		}
	}
	dec, enc, err := codecTimes(specs, sols, tr)
	m["serialize.decode_us"], m["serialize.encode_us"] = dec, enc
	return err
}
