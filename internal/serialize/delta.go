package serialize

import (
	"fmt"

	"repro/internal/nbf"
)

// LinkRefJSON names one candidate link of the connection graph by its
// endpoint vertex IDs (undirected; {U,V} and {V,U} are the same link).
type LinkRefJSON struct {
	U int `json:"u"`
	V int `json:"v"`
}

// DeltaJSON is the incremental re-planning grammar: a spec diff applied to
// a base problem to derive a new one. It expresses the changes a vehicle
// program actually sees between planning runs — flows appear and disappear
// (a retrofitted ECU, a removed function), candidate links are damaged or
// restored (harness changes, known-bad segments), and the reliability
// posture tightens or relaxes — without restating the whole problem.
//
// The vertex set is fixed: a delta never adds or removes end stations or
// switches, so vertex IDs keep their meaning between base and derived
// problems (which is what makes warm-starting from the base plan sound).
type DeltaJSON struct {
	// AddFlows are new TT flows; their IDs must not collide with surviving
	// base flows.
	AddFlows []FlowJSON `json:"addFlows,omitempty"`
	// RemoveFlows lists base flow IDs to drop; every ID must exist.
	RemoveFlows []int `json:"removeFlows,omitempty"`
	// DamageLinks removes candidate links from the connection graph; every
	// link must exist. A plan for the derived problem can no longer route
	// over them.
	DamageLinks []LinkRefJSON `json:"damageLinks,omitempty"`
	// RestoreLinks re-adds candidate links (with their cable length); the
	// links must not already exist.
	RestoreLinks []EdgeJSON `json:"restoreLinks,omitempty"`
	// ReliabilityGoal, when positive, replaces the base goal (Eq. 2's R).
	ReliabilityGoal float64 `json:"reliabilityGoal,omitempty"`
	// FlowLevelRedundancy, when non-nil, replaces the base redundancy mode.
	FlowLevelRedundancy *bool `json:"flowLevelRedundancy,omitempty"`
}

// Empty reports whether the delta changes nothing: applying an empty delta
// yields a problem byte-identical to its base.
func (d DeltaJSON) Empty() bool {
	return len(d.AddFlows) == 0 && len(d.RemoveFlows) == 0 &&
		len(d.DamageLinks) == 0 && len(d.RestoreLinks) == 0 &&
		d.ReliabilityGoal == 0 && d.FlowLevelRedundancy == nil
}

// ApplyDelta derives a new problem spec from base by applying the delta at
// the JSON level: flows are removed then added (appended in delta order, so
// base flow order is preserved), damaged links leave the connection graph,
// restored links re-join it, and the reliability knobs are overridden.
// Every referenced flow or link is validated against the base, so a stale
// delta (removing a flow that is already gone, damaging a link twice) fails
// loudly instead of silently planning the wrong problem, and the derived
// spec is validated as DecodeProblem validates it, so a delta whose result
// the planner would refuse (a flow from a switch, a restored link between
// two end stations, a reliability goal of 1) fails here too. The base is
// not mutated. An empty delta returns a spec deep-equal to the base, which
// is what keeps the empty-delta path bit-identical to the cached base plan.
func ApplyDelta(base ProblemJSON, d DeltaJSON) (ProblemJSON, error) {
	out := base
	// Deep-copy the slices that change; the rest is value-copied above.
	out.Flows = append([]FlowJSON(nil), base.Flows...)
	out.Connections.Vertices = append([]VertexJSON(nil), base.Connections.Vertices...)
	out.Connections.Edges = append([]EdgeJSON(nil), base.Connections.Edges...)

	// Flow removals.
	if len(d.RemoveFlows) > 0 {
		drop := make(map[int]bool, len(d.RemoveFlows))
		for _, id := range d.RemoveFlows {
			if drop[id] {
				return ProblemJSON{}, fmt.Errorf("serialize: delta removes flow %d twice", id)
			}
			drop[id] = true
		}
		kept := out.Flows[:0]
		for _, f := range out.Flows {
			if drop[f.ID] {
				delete(drop, f.ID)
				continue
			}
			kept = append(kept, f)
		}
		for id := range drop {
			return ProblemJSON{}, fmt.Errorf("serialize: delta removes flow %d, which the base does not have", id)
		}
		out.Flows = kept
	}
	// Flow additions.
	seen := make(map[int]bool, len(out.Flows)+len(d.AddFlows))
	for _, f := range out.Flows {
		seen[f.ID] = true
	}
	for _, f := range d.AddFlows {
		if seen[f.ID] {
			return ProblemJSON{}, fmt.Errorf("serialize: delta adds flow %d, which already exists", f.ID)
		}
		seen[f.ID] = true
		g := f
		g.Dsts = append([]int(nil), f.Dsts...)
		out.Flows = append(out.Flows, g)
	}

	// Link damage.
	for _, l := range d.DamageLinks {
		idx := -1
		for i, e := range out.Connections.Edges {
			if sameLink(e.U, e.V, l.U, l.V) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return ProblemJSON{}, fmt.Errorf("serialize: delta damages link (%d,%d), which the base does not have", l.U, l.V)
		}
		out.Connections.Edges = append(out.Connections.Edges[:idx], out.Connections.Edges[idx+1:]...)
	}
	// Link restoration.
	for _, l := range d.RestoreLinks {
		for _, e := range out.Connections.Edges {
			if sameLink(e.U, e.V, l.U, l.V) {
				return ProblemJSON{}, fmt.Errorf("serialize: delta restores link (%d,%d), which already exists", l.U, l.V)
			}
		}
		out.Connections.Edges = append(out.Connections.Edges, l)
	}

	if d.ReliabilityGoal != 0 {
		if d.ReliabilityGoal < 0 {
			return ProblemJSON{}, fmt.Errorf("serialize: delta reliability goal %g is negative", d.ReliabilityGoal)
		}
		out.ReliabilityGoal = d.ReliabilityGoal
	}
	if d.FlowLevelRedundancy != nil {
		out.FlowLevelRedundancy = *d.FlowLevelRedundancy
	}
	if err := checkDerived(out); err != nil {
		return ProblemJSON{}, fmt.Errorf("serialize: delta derives an invalid problem: %w", err)
	}
	return out, nil
}

// checkDerived validates a derived spec as DecodeProblem does, without
// resolving its recovery mechanism: a delta cannot change the mechanism,
// and validation does not read it.
func checkDerived(p ProblemJSON) error {
	g, err := DecodeGraph(p.Connections)
	if err != nil {
		return err
	}
	_, err = decodeProblem(p, g, &nbf.StatelessRecovery{})
	return err
}

func sameLink(u1, v1, u2, v2 int) bool {
	return (u1 == u2 && v1 == v2) || (u1 == v2 && v1 == u2)
}
