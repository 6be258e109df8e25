package main

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one request share Req.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Req    string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanJSON is the on-disk form: times are nanoseconds from the first span.
type spanJSON struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	SelfNs int64  `json:"selfNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// grow makes room for n more spans, so that recording the spans of a
// timed loop never reallocates the span slice inside the loop.
func (t *tracer) grow(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = slices.Grow(t.spans, n)
	t.mu.Unlock()
}

// reserve allocates an ID for a parent span whose end is not known yet;
// finish fills it in.
func (t *tracer) reserve(name string, parent int, req string, start time.Time) int {
	return t.add(name, parent, req, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// coverage returns, per span with children, the share of its wall time the
// union of its children's intervals covers; self time is the rest.
func coverage(spans []span) map[int]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(kids))
	for _, s := range spans {
		ch, ok := kids[s.ID]
		if !ok || s.dur() <= 0 {
			continue
		}
		out[s.ID] = float64(covered(s, ch)) / float64(s.dur())
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// minCoverage is the smallest child coverage over all parent spans and the
// name of that parent (1 and "" when no span has children).
func minCoverage(spans []span) (float64, string) {
	m, name := 1.0, ""
	names := make(map[int]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	for id, c := range coverage(spans) {
		if c < m {
			m, name = c, names[id]
		}
	}
	return m, name
}

// minChildCoverage is the share of every parent span's wall time its
// children must cover, so that the layer split of a traced run accounts for
// nearly all of the time it splits.
const minChildCoverage = 0.95

// coverageGate returns the smallest child coverage, or an error when it is
// below minChildCoverage.
func coverageGate(spans []span) (float64, error) {
	c, name := minCoverage(spans)
	if c < minChildCoverage {
		return c, fmt.Errorf("child spans cover only %.3f of a %s span, want at least %.2f", c, name, minChildCoverage)
	}
	return c, nil
}

// exportSpans converts spans to their on-disk form with self times.
func exportSpans(spans []span) []spanJSON {
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		out[i] = spanJSON{
			ID: s.ID, Parent: s.Parent, Name: s.Name, Req: s.Req,
			Start:  s.Start.Sub(t0).Nanoseconds(),
			End:    s.End.Sub(t0).Nanoseconds(),
			SelfNs: (s.dur() - covered(s, kids[s.ID])).Nanoseconds(),
		}
	}
	return out
}
