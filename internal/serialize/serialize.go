// Package serialize provides stable JSON codecs for the planner's inputs
// and outputs: connection graphs, flow specifications, planning problems
// and solutions. It lets tools persist test cases, exchange solutions with
// downstream design steps (Fig. 1's post-planning design), and diff runs.
package serialize

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/tsn"
)

// VertexJSON is one vertex of a serialized graph.
type VertexJSON struct {
	ID   int    `json:"id"`
	Name string `json:"name,omitempty"`
	Kind string `json:"kind"` // "es" or "sw"
}

// EdgeJSON is one undirected edge.
type EdgeJSON struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Length float64 `json:"length"`
}

// GraphJSON serializes a graph.
type GraphJSON struct {
	Vertices []VertexJSON `json:"vertices"`
	Edges    []EdgeJSON   `json:"edges"`
}

// EncodeGraph converts a graph to its JSON form.
func EncodeGraph(g *graph.Graph) GraphJSON {
	out := GraphJSON{}
	for i := 0; i < g.NumVertices(); i++ {
		v := g.MustVertex(i)
		out.Vertices = append(out.Vertices, VertexJSON{ID: v.ID, Name: v.Name, Kind: v.Kind.String()})
	}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, EdgeJSON{U: e.U, V: e.V, Length: e.Length})
	}
	return out
}

// DecodeGraph rebuilds a graph. Vertex IDs must be dense and in order.
func DecodeGraph(in GraphJSON) (*graph.Graph, error) {
	g := graph.New()
	for i, v := range in.Vertices {
		if v.ID != i {
			return nil, fmt.Errorf("serialize: vertex IDs must be dense; got %d at position %d", v.ID, i)
		}
		var kind graph.Kind
		switch v.Kind {
		case "es":
			kind = graph.KindEndStation
		case "sw":
			kind = graph.KindSwitch
		default:
			return nil, fmt.Errorf("serialize: unknown vertex kind %q", v.Kind)
		}
		g.AddVertex(v.Name, kind)
	}
	for _, e := range in.Edges {
		if err := g.AddEdge(e.U, e.V, e.Length); err != nil {
			return nil, fmt.Errorf("serialize: %w", err)
		}
	}
	return g, nil
}

// FlowJSON serializes one TT flow; durations are nanoseconds.
type FlowJSON struct {
	ID         int    `json:"id"`
	Name       string `json:"name,omitempty"`
	Src        int    `json:"src"`
	Dsts       []int  `json:"dsts"`
	PeriodNs   int64  `json:"periodNs"`
	DeadlineNs int64  `json:"deadlineNs"`
	FrameSize  int    `json:"frameSize"`
}

// EncodeFlows converts a flow set.
func EncodeFlows(fs tsn.FlowSet) []FlowJSON {
	out := make([]FlowJSON, 0, len(fs))
	for _, f := range fs {
		out = append(out, FlowJSON{
			ID: f.ID, Name: f.Name, Src: f.Src,
			Dsts:     append([]int(nil), f.Dsts...),
			PeriodNs: f.Period.Nanoseconds(), DeadlineNs: f.Deadline.Nanoseconds(),
			FrameSize: f.FrameSize,
		})
	}
	return out
}

// DecodeFlows rebuilds a flow set.
func DecodeFlows(in []FlowJSON) tsn.FlowSet {
	fs := make(tsn.FlowSet, 0, len(in))
	for _, f := range in {
		fs = append(fs, tsn.Flow{
			ID: f.ID, Name: f.Name, Src: f.Src,
			Dsts:   append([]int(nil), f.Dsts...),
			Period: time.Duration(f.PeriodNs), Deadline: time.Duration(f.DeadlineNs),
			FrameSize: f.FrameSize,
		})
	}
	return fs
}

// ProblemJSON serializes a planning problem (the NBF is referenced by its
// registry name, not embedded).
type ProblemJSON struct {
	Connections         GraphJSON  `json:"connections"`
	BasePeriodNs        int64      `json:"basePeriodNs"`
	SlotsPerBase        int        `json:"slotsPerBase"`
	Flows               []FlowJSON `json:"flows"`
	NBF                 string     `json:"nbf"`
	ReliabilityGoal     float64    `json:"reliabilityGoal"`
	MaxESDegree         int        `json:"maxEsDegree"`
	ESLevel             string     `json:"esLevel"`
	FlowLevelRedundancy bool       `json:"flowLevelRedundancy,omitempty"`
}

// EncodeProblem converts a problem; nbfName names the recovery mechanism
// for the registry.
func EncodeProblem(p *core.Problem, nbfName string) ProblemJSON {
	return ProblemJSON{
		Connections:         EncodeGraph(p.Connections),
		BasePeriodNs:        p.Net.BasePeriod.Nanoseconds(),
		SlotsPerBase:        p.Net.SlotsPerBase,
		Flows:               EncodeFlows(p.Flows),
		NBF:                 nbfName,
		ReliabilityGoal:     p.ReliabilityGoal,
		MaxESDegree:         p.MaxESDegree,
		ESLevel:             p.ESLevel.String(),
		FlowLevelRedundancy: p.FlowLevelRedundancy,
	}
}

// DecodeProblem rebuilds a validated problem using the given registry and
// the default component library.
func DecodeProblem(in ProblemJSON, reg *nbf.Registry) (*core.Problem, error) {
	g, err := DecodeGraph(in.Connections)
	if err != nil {
		return nil, err
	}
	mech, err := reg.New(in.NBF)
	if err != nil {
		return nil, err
	}
	return decodeProblem(in, g, mech)
}

// decodeProblem completes DecodeProblem once the graph is decoded and the
// recovery mechanism resolved; validation does not depend on the
// mechanism.
func decodeProblem(in ProblemJSON, g *graph.Graph, mech nbf.NBF) (*core.Problem, error) {
	lvl, err := parseLevel(in.ESLevel)
	if err != nil {
		return nil, err
	}
	p := &core.Problem{
		Connections:         g,
		Net:                 tsn.Network{BasePeriod: time.Duration(in.BasePeriodNs), SlotsPerBase: in.SlotsPerBase},
		Flows:               DecodeFlows(in.Flows),
		NBF:                 mech,
		ReliabilityGoal:     in.ReliabilityGoal,
		Library:             asil.DefaultLibrary(),
		MaxESDegree:         in.MaxESDegree,
		ESLevel:             lvl,
		FlowLevelRedundancy: in.FlowLevelRedundancy,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseLevel(s string) (asil.Level, error) {
	switch s {
	case "", "D":
		return asil.LevelD, nil
	case "A":
		return asil.LevelA, nil
	case "B":
		return asil.LevelB, nil
	case "C":
		return asil.LevelC, nil
	default:
		return 0, fmt.Errorf("serialize: unknown ASIL %q", s)
	}
}

// SwitchJSON is one switch allocation of a solution.
type SwitchJSON struct {
	ID    int    `json:"id"`
	Name  string `json:"name,omitempty"`
	ASIL  string `json:"asil"`
	Ports int    `json:"ports"`
}

// LinkJSON is one link allocation of a solution.
type LinkJSON struct {
	U      int     `json:"u"`
	V      int     `json:"v"`
	Length float64 `json:"length"`
	ASIL   string  `json:"asil"`
}

// SolutionJSON serializes a planning solution.
type SolutionJSON struct {
	Cost         float64      `json:"cost"`
	FoundAtEpoch int          `json:"foundAtEpoch,omitempty"`
	FoundAtStep  int          `json:"foundAtStep,omitempty"`
	Switches     []SwitchJSON `json:"switches"`
	Links        []LinkJSON   `json:"links"`
}

// EncodeSolution converts a solution.
func EncodeSolution(sol *core.Solution) SolutionJSON {
	out := SolutionJSON{Cost: sol.Cost, FoundAtEpoch: sol.FoundAtEpoch, FoundAtStep: sol.FoundAtStep}
	for _, sw := range sol.Topology.VerticesOfKind(graph.KindSwitch) {
		lvl, ok := sol.Assignment.Switches[sw]
		if !ok {
			continue
		}
		out.Switches = append(out.Switches, SwitchJSON{
			ID:    sw,
			Name:  sol.Topology.MustVertex(sw).Name,
			ASIL:  lvl.String(),
			Ports: sol.Topology.Degree(sw),
		})
	}
	for _, e := range sol.Topology.Edges() {
		out.Links = append(out.Links, LinkJSON{
			U: e.U, V: e.V, Length: e.Length,
			ASIL: sol.Assignment.LinkLevel(e.U, e.V).String(),
		})
	}
	return out
}

// DecodeSolution rebuilds a solution over the vertex set of connections.
func DecodeSolution(in SolutionJSON, connections *graph.Graph) (*core.Solution, error) {
	topo := connections.EmptyLike()
	assign := asil.NewAssignment()
	for _, sw := range in.Switches {
		lvl, err := parseLevel(sw.ASIL)
		if err != nil {
			return nil, err
		}
		if connections.Kind(sw.ID) != graph.KindSwitch {
			return nil, fmt.Errorf("serialize: vertex %d is not a switch", sw.ID)
		}
		assign.Switches[sw.ID] = lvl
	}
	for _, l := range in.Links {
		lvl, err := parseLevel(l.ASIL)
		if err != nil {
			return nil, err
		}
		if err := topo.AddEdge(l.U, l.V, l.Length); err != nil {
			return nil, fmt.Errorf("serialize: %w", err)
		}
		assign.SetLink(l.U, l.V, lvl)
	}
	return &core.Solution{
		Topology:     topo,
		Assignment:   assign,
		Cost:         in.Cost,
		FoundAtEpoch: in.FoundAtEpoch,
		FoundAtStep:  in.FoundAtStep,
	}, nil
}

// WriteJSON marshals v with indentation to w.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ReadJSON unmarshals from r into v.
func ReadJSON(r io.Reader, v interface{}) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
