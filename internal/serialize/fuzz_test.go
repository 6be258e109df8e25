package serialize

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/tsn"
)

// fuzzGraph is a minimal valid connection graph (2 ES, 2 SW, dual homed)
// used as the fixed decode context for the checkpoint fuzzer.
func fuzzGraph() *graph.Graph {
	g := graph.New()
	g.AddVertex("cam", graph.KindEndStation)
	g.AddVertex("ecu", graph.KindEndStation)
	g.AddVertex("sw0", graph.KindSwitch)
	g.AddVertex("sw1", graph.KindSwitch)
	for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			panic(err) // static fixture, unreachable
		}
	}
	return g
}

// FuzzProblemSpec feeds arbitrary bytes through the full problem decode
// path: JSON → ProblemJSON → DecodeProblem → Problem.Validate. Malformed
// input of any shape must come back as an error, never as a panic — this
// is the trust boundary for every spec file a user hands to the CLIs.
func FuzzProblemSpec(f *testing.F) {
	// Seed with a valid encoding so the fuzzer starts from the interesting
	// region of the input space rather than pure noise.
	valid := EncodeProblem(validProblem(), "stateless-greedy")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"connections":{"vertices":[{"id":0,"kind":"es"}]}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	reg := nbf.NewRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ProblemJSON
		if err := ReadJSON(bytes.NewReader(data), &spec); err != nil {
			return // malformed JSON is rejected, fine
		}
		// Decoding may fail — that is the contract — but must not panic.
		if _, err := DecodeProblem(spec, reg); err != nil {
			return
		}
	})
}

// FuzzLoadCheckpoint feeds arbitrary bytes through LoadCheckpoint, the
// decode path for resume files. Corrupt, truncated, or adversarial
// checkpoints must be rejected with an error, never a panic.
func FuzzLoadCheckpoint(f *testing.F) {
	// Seed with a structurally valid checkpoint encoding.
	valid := CheckpointJSON{
		Version:     CheckpointVersion,
		Fingerprint: "fuzz",
		Epoch:       1,
		Weights:     [][]float64{{0.5, -0.5}},
		Best: &SolutionJSON{
			Cost:     2,
			Switches: []SwitchJSON{{ID: 2, ASIL: "A", Ports: 2}},
			Links:    []LinkJSON{{U: 0, V: 2, Length: 1, ASIL: "A"}, {U: 1, V: 2, Length: 1, ASIL: "A"}},
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"epoch":0}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	g := fuzzGraph()
	// One reusable scratch file per worker process: LoadCheckpoint reads
	// from a path, and a per-exec TempDir would dominate the fuzz budget.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Errors are the expected outcome for most inputs; panics are bugs.
		if _, err := LoadCheckpoint(path, g); err != nil {
			return
		}
	})
}

// validProblem builds a small decodable problem over fuzzGraph for the
// problem fuzzer's seed corpus.
func validProblem() *core.Problem {
	net := tsn.Network{BasePeriod: 500 * time.Microsecond, SlotsPerBase: 20}
	return &core.Problem{
		Connections: fuzzGraph(),
		Net:         net,
		Flows: tsn.FlowSet{{
			ID: 0, Src: 0, Dsts: []int{1},
			Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 100,
		}},
		NBF:             &nbf.StatelessRecovery{MaxAlternatives: 3},
		ReliabilityGoal: 1e-6,
		Library:         asil.DefaultLibrary(),
		MaxESDegree:     2,
		ESLevel:         asil.LevelD,
	}
}

// FuzzApplyDelta applies arbitrary delta bytes to a fixed valid base. It
// must never panic, and any spec it returns must decode and validate: a
// delta is checked against its base, so a derived problem the planner
// would refuse is refused when the delta is applied.
func FuzzApplyDelta(f *testing.F) {
	base := EncodeProblem(validProblem(), "stateless-greedy")
	redundant := true
	for _, d := range []DeltaJSON{
		{},
		{AddFlows: []FlowJSON{{ID: 1, Src: 1, Dsts: []int{0}, PeriodNs: base.BasePeriodNs, DeadlineNs: base.BasePeriodNs, FrameSize: 200}}},
		{RemoveFlows: []int{0}},
		{DamageLinks: []LinkRefJSON{{U: 2, V: 3}}},
		{DamageLinks: []LinkRefJSON{{U: 0, V: 2}}, RestoreLinks: []EdgeJSON{{U: 0, V: 2, Length: 1.5}}},
		{ReliabilityGoal: 1e-7, FlowLevelRedundancy: &redundant},
	} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"restoreLinks":[{"u":0,"v":1,"length":1}]}`))
	f.Add([]byte(`{"addFlows":[{"id":7,"src":2,"dsts":[9],"periodNs":-1}]}`))
	f.Add([]byte(`not json`))

	reg := nbf.NewRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		var d DeltaJSON
		if err := ReadJSON(bytes.NewReader(data), &d); err != nil {
			return
		}
		out, err := ApplyDelta(base, d)
		if err != nil {
			return
		}
		if _, err := DecodeProblem(out, reg); err != nil {
			t.Fatalf("derived spec does not decode: %v\ndelta: %s", err, data)
		}
	})
}
