// Package fault is a deterministic, seedable fault-injection layer for
// chaos-testing the planning service and its persistence path. Production
// code exposes named injection points (the Point* constants); an Injector
// armed with a schedule of Rules decides, per point invocation, whether to
// inject a failure and which kind.
//
// Determinism is the whole point: whether invocation n of a point fires is
// a pure function of (seed, point name, n), derived through the same
// SplitMix64 generator the planner uses for reproducible training
// (internal/rng). The decision is independent of goroutine interleaving,
// so a chaos failure observed once reproduces bit-exactly from its printed
// seed — no matter how the scheduler reorders the workers that triggered
// it.
//
// Three families of injection points exist:
//
//   - Filesystem points (fs.*), consulted by internal/serialize's atomic
//     write pipeline via the FS adapter: injected write/fsync/rename
//     errors, ENOSPC, and torn short-writes that leave a truncated file
//     behind a "successful" write.
//   - Compute points (core.*, service.*), fired by the planner's
//     exploration workers and the service's job runner: injected panics,
//     hangs (block until the job's context is cancelled) and slow steps.
//   - Wire points (http.*), consulted by the Transport round-tripper once
//     per outgoing HTTP request: injected transport errors, slow and hung
//     requests, and torn response bodies that cut off mid-JSON — the
//     network failure modes a fleet coordinator must survive.
//
// A nil *Injector is valid everywhere and injects nothing, so production
// paths pay one nil check per point.
package fault

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/rng"
)

// Kind enumerates what an armed rule injects when it fires.
type Kind int

const (
	// KindError fails the operation with a generic injected error
	// (filesystem points).
	KindError Kind = iota + 1
	// KindENOSPC fails the operation with an error wrapping
	// syscall.ENOSPC, so errors.Is(err, syscall.ENOSPC) holds.
	KindENOSPC
	// KindTorn truncates the written content to Rule.TornBytes while the
	// write still reports success — the torn-write crash pattern
	// (filesystem points consulted through Torn).
	KindTorn
	// KindPanic panics with a message naming the point, call number and
	// seed (compute points).
	KindPanic
	// KindHang blocks until the operation's context is cancelled — a
	// stuck worker that only an external watchdog can unwedge (compute
	// points).
	KindHang
	// KindDelay sleeps Rule.Delay (or, at compute points and HTTP
	// requests, until the context is cancelled) — a slow step, request or
	// disk (compute points, http.roundtrip, fs.write).
	KindDelay
)

// String names the kind in rule specs and schedule printouts.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindENOSPC:
		return "enospc"
	case KindTorn:
		return "torn"
	case KindPanic:
		return "panic"
	case KindHang:
		return "hang"
	case KindDelay:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// The injection points wired through the repository. The FS adapter
// consults the fs.* points; the planning service fires service.plan once
// per job run and core.explore once per exploration worker round; the
// Transport round-tripper consults http.roundtrip once per outgoing HTTP
// request.
const (
	PointFSWrite   = "fs.write"
	PointFSSync    = "fs.sync"
	PointFSRename  = "fs.rename"
	PointFSTorn    = "fs.torn"
	PointExplore   = "core.explore"
	PointPlan      = "service.plan"
	PointRoundTrip = "http.roundtrip"
)

// Rule arms one injection behavior at one point (or a "prefix*" family of
// points). A rule fires on the invocation numbers listed in Calls (1-based,
// counted per point), or — when Calls is empty — independently per
// invocation with probability Prob. A rule with neither Calls nor a
// positive Prob never fires; use Prob: 1 for "every invocation".
type Rule struct {
	// Point is the exact point name, or a prefix ending in '*' matching a
	// family of points ("fs.*").
	Point string
	// Kind selects the injected failure.
	Kind Kind
	// Prob is the per-invocation fire probability when Calls is empty.
	Prob float64
	// Calls lists the exact invocation numbers that fire (1-based).
	Calls []int
	// Delay is the injected latency of a KindDelay rule.
	Delay time.Duration
	// TornBytes is how many leading bytes of the write a KindTorn rule
	// lets through.
	TornBytes int
}

func (r Rule) matches(point string) bool {
	if strings.HasSuffix(r.Point, "*") {
		return strings.HasPrefix(point, strings.TrimSuffix(r.Point, "*"))
	}
	return r.Point == point
}

// fires decides whether this rule injects on invocation `call` of `point`.
// The decision is a pure function of its arguments, so it never depends on
// which goroutine got which call number first.
func (r Rule) fires(seed int64, point string, call int) bool {
	if len(r.Calls) > 0 {
		for _, c := range r.Calls {
			if c == call {
				return true
			}
		}
		return false
	}
	if r.Prob >= 1 {
		return true
	}
	if r.Prob <= 0 {
		return false
	}
	return unit(seed, point, call) < r.Prob
}

// String renders the rule in the spec grammar ParseRules reads.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", r.Point, r.Kind)
	if len(r.Calls) > 0 {
		calls := make([]string, len(r.Calls))
		for i, c := range r.Calls {
			calls[i] = fmt.Sprint(c)
		}
		fmt.Fprintf(&b, ":calls=%s", strings.Join(calls, ","))
	} else if r.Prob > 0 && r.Prob < 1 {
		fmt.Fprintf(&b, ":p=%g", r.Prob)
	}
	if r.Kind == KindDelay {
		fmt.Fprintf(&b, ":delay=%s", r.Delay)
	}
	if r.Kind == KindTorn {
		fmt.Fprintf(&b, ":bytes=%d", r.TornBytes)
	}
	return b.String()
}

// unit maps (seed, point, call) to a uniform [0,1) draw through SplitMix64.
// The point name is folded into the seed FNV-1a style; the call number
// perturbs it by the golden gamma, so consecutive calls draw decorrelated
// values.
func unit(seed int64, point string, call int) float64 {
	h := uint64(seed) ^ 0xcbf29ce484222325
	for i := 0; i < len(point); i++ {
		h = (h ^ uint64(point[i])) * 0x100000001b3
	}
	h += uint64(call) * 0x9e3779b97f4a7c15
	return float64(rng.New(int64(h)).Uint64()>>11) / (1 << 53)
}

// Injector evaluates a seeded fault schedule at named injection points.
// All methods are safe for concurrent use; a nil *Injector injects
// nothing.
type Injector struct {
	seed  int64
	rules []Rule

	mu    sync.Mutex
	calls map[string]int
	fired map[string]int
}

// New builds an injector over the given schedule. The same seed and rules
// reproduce the same per-invocation decisions at every point.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{
		seed:  seed,
		rules: append([]Rule(nil), rules...),
		calls: make(map[string]int),
		fired: make(map[string]int),
	}
}

// Seed returns the schedule seed, for failure reports.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// String prints the seed and schedule — the line a chaos test logs so any
// failure reproduces exactly.
func (in *Injector) String() string {
	if in == nil {
		return "fault: off"
	}
	specs := make([]string, len(in.rules))
	for i, r := range in.rules {
		specs[i] = r.String()
	}
	return fmt.Sprintf("fault: seed=%d schedule=%q", in.seed, strings.Join(specs, ";"))
}

// decide counts one invocation of point and returns the first matching
// rule (of the kinds `want` accepts) that fires on it.
func (in *Injector) decide(point string, want func(Kind) bool) (Rule, int, bool) {
	if in == nil {
		return Rule{}, 0, false
	}
	in.mu.Lock()
	in.calls[point]++
	n := in.calls[point]
	in.mu.Unlock()
	for _, r := range in.rules {
		if !want(r.Kind) || !r.matches(point) {
			continue
		}
		if r.fires(in.seed, point, n) {
			in.mu.Lock()
			in.fired[point]++
			in.mu.Unlock()
			return r, n, true
		}
	}
	return Rule{}, 0, false
}

// Err consults the error rules (KindError, KindENOSPC) at a filesystem
// point and returns the injected error, or nil.
func (in *Injector) Err(point string) error {
	r, n, ok := in.decide(point, func(k Kind) bool { return k == KindError || k == KindENOSPC })
	if !ok {
		return nil
	}
	return in.errorFor(r, point, n)
}

// errorFor is the error a fired KindError or KindENOSPC rule injects on
// call n of point.
func (in *Injector) errorFor(r Rule, point string, n int) error {
	if r.Kind == KindENOSPC {
		return fmt.Errorf("fault: injected at %s call %d (seed %d): %w", point, n, in.seed, syscall.ENOSPC)
	}
	return fmt.Errorf("fault: injected error at %s call %d (seed %d)", point, n, in.seed)
}

// Torn consults the KindTorn rules at a filesystem point and returns the
// byte limit of a torn write, or -1 to leave the write intact.
func (in *Injector) Torn(point string) int {
	r, _, ok := in.decide(point, func(k Kind) bool { return k == KindTorn })
	if !ok {
		return -1
	}
	return r.TornBytes
}

// Fire consults the compute rules (KindPanic, KindHang, KindDelay) at a
// compute point: it may panic, block until ctx is cancelled, or sleep.
func (in *Injector) Fire(ctx context.Context, point string) {
	r, n, ok := in.decide(point, func(k Kind) bool {
		return k == KindPanic || k == KindHang || k == KindDelay
	})
	if !ok {
		return
	}
	switch r.Kind {
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s call %d (seed %d)", point, n, in.seed))
	case KindHang:
		<-ctx.Done()
	case KindDelay:
		t := time.NewTimer(r.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}

// Calls returns how many times point has been consulted.
func (in *Injector) Calls(point string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[point]
}

// Fired returns how many invocations of point actually injected a fault.
func (in *Injector) Fired(point string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

// Stats summarizes every consulted point as "point calls/fired" lines,
// sorted by point name.
func (in *Injector) Stats() string {
	if in == nil {
		return ""
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	points := make([]string, 0, len(in.calls))
	for p := range in.calls {
		points = append(points, p)
	}
	sort.Strings(points)
	lines := make([]string, len(points))
	for i, p := range points {
		lines[i] = fmt.Sprintf("%s %d/%d", p, in.fired[p], in.calls[p])
	}
	return strings.Join(lines, "; ")
}

// FS adapts an Injector to internal/serialize's FSFaults seam. The path
// argument of each hook is ignored: the schedule keys on the operation,
// not the file.
type FS struct{ In *Injector }

// Write is consulted before the temp-file content write. Besides the error
// kinds it honours KindDelay: the write is held for Rule.Delay, then goes
// ahead — a slow disk. One consultation counts one call, whichever kind
// fires.
func (f FS) Write(string) error {
	r, n, ok := f.In.decide(PointFSWrite, func(k Kind) bool {
		return k == KindError || k == KindENOSPC || k == KindDelay
	})
	if !ok {
		return nil
	}
	if r.Kind == KindDelay {
		time.Sleep(r.Delay)
		return nil
	}
	return f.In.errorFor(r, PointFSWrite, n)
}

// Sync is consulted before the temp file's fsync.
func (f FS) Sync(string) error { return f.In.Err(PointFSSync) }

// Rename is consulted before the rename over the destination.
func (f FS) Rename(string) error { return f.In.Err(PointFSRename) }

// Torn is consulted once per write; a non-negative result truncates the
// content while the write still reports success.
func (f FS) Torn(string) int { return f.In.Torn(PointFSTorn) }
