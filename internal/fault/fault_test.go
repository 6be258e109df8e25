package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// firingSet evaluates which of the first n invocations of point fire under
// a fresh injector with the given schedule.
func firingSet(seed int64, rule Rule, point string, n int) []int {
	in := New(seed, rule)
	var fired []int
	for i := 1; i <= n; i++ {
		if in.Err(point) != nil {
			fired = append(fired, i)
		}
	}
	return fired
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	rule := Rule{Point: "fs.write", Kind: KindError, Prob: 0.1}
	a := firingSet(7, rule, "fs.write", 1000)
	b := firingSet(7, rule, "fs.write", 1000)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 || len(a) > 300 {
		t.Fatalf("p=0.1 over 1000 calls fired %d times", len(a))
	}
	c := firingSet(8, rule, "fs.write", 1000)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

// TestScheduleIsOrderIndependent drives the same point from 8 goroutines
// and checks the number of injected faults matches the sequential
// schedule: the per-invocation decision depends on the call number, not on
// which goroutine drew it.
func TestScheduleIsOrderIndependent(t *testing.T) {
	rule := Rule{Point: "fs.write", Kind: KindError, Prob: 0.25}
	const calls = 800
	want := len(firingSet(42, rule, "fs.write", calls))

	in := New(42, rule)
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < calls/8; i++ {
				if in.Err("fs.write") != nil {
					local++
				}
			}
			mu.Lock()
			got += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got != want {
		t.Fatalf("concurrent run injected %d faults, sequential schedule says %d", got, want)
	}
	if in.Calls("fs.write") != calls {
		t.Fatalf("calls = %d, want %d", in.Calls("fs.write"), calls)
	}
	if in.Fired("fs.write") != want {
		t.Fatalf("fired = %d, want %d", in.Fired("fs.write"), want)
	}
}

func TestCallScheduledRules(t *testing.T) {
	in := New(1, Rule{Point: "fs.sync", Kind: KindENOSPC, Calls: []int{2, 4}})
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, in.Err("fs.sync"))
	}
	for i, wantErr := range []bool{false, true, false, true, false} {
		if (errs[i] != nil) != wantErr {
			t.Fatalf("call %d: err = %v, want firing %v", i+1, errs[i], wantErr)
		}
	}
	if !errors.Is(errs[1], syscall.ENOSPC) {
		t.Fatalf("ENOSPC rule error %v does not wrap syscall.ENOSPC", errs[1])
	}
	if !strings.Contains(errs[1].Error(), "seed 1") {
		t.Fatalf("injected error %v does not name its seed", errs[1])
	}
}

func TestKindsAreSegregatedByConsultingMethod(t *testing.T) {
	// A torn rule must not surface through Err, and an error rule must not
	// surface through Torn — the methods consult disjoint kind families.
	in := New(1,
		Rule{Point: "fs.torn", Kind: KindTorn, Prob: 1, TornBytes: 9},
		Rule{Point: "fs.torn", Kind: KindError, Prob: 1},
	)
	if n := in.Torn("fs.torn"); n != 9 {
		t.Fatalf("Torn = %d, want 9", n)
	}
	if err := in.Err("fs.torn"); err == nil {
		t.Fatal("error rule did not fire through Err")
	}
	inErr := New(1, Rule{Point: "fs.torn", Kind: KindError, Prob: 1})
	if n := inErr.Torn("fs.torn"); n != -1 {
		t.Fatalf("error rule leaked through Torn: %d", n)
	}
}

func TestPrefixPointMatching(t *testing.T) {
	in := New(1, Rule{Point: "fs.*", Kind: KindError, Prob: 1})
	if in.Err("fs.write") == nil || in.Err("fs.rename") == nil {
		t.Fatal("fs.* did not match fs points")
	}
	if in.Err("core.explore") != nil {
		t.Fatal("fs.* matched a core point")
	}
}

func TestFirePanicHangDelay(t *testing.T) {
	panicked := func(in *Injector) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		in.Fire(context.Background(), PointExplore)
		return ""
	}
	in := New(3, Rule{Point: PointExplore, Kind: KindPanic, Calls: []int{2}})
	if msg := panicked(in); msg != "" {
		t.Fatalf("call 1 panicked: %s", msg)
	}
	msg := panicked(in)
	if !strings.Contains(msg, "injected panic") || !strings.Contains(msg, "seed 3") {
		t.Fatalf("call 2 panic message %q", msg)
	}

	// Hang blocks until the context is cancelled.
	hang := New(1, Rule{Point: PointPlan, Kind: KindHang, Prob: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		hang.Fire(ctx, PointPlan)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("hang returned before cancellation")
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hang did not release on cancellation")
	}

	// Delay sleeps its configured latency.
	slow := New(1, Rule{Point: PointPlan, Kind: KindDelay, Prob: 1, Delay: 30 * time.Millisecond})
	start := time.Now()
	slow.Fire(context.Background(), PointPlan)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay slept only %s", d)
	}
}

// TestFSWriteDelay: the FS adapter's write hook holds a write for a delay
// rule and lets it through, fails it for an error rule, and counts one call
// per consultation either way.
func TestFSWriteDelay(t *testing.T) {
	in := New(1,
		Rule{Point: PointFSWrite, Kind: KindDelay, Calls: []int{1}, Delay: 30 * time.Millisecond},
		Rule{Point: PointFSWrite, Kind: KindENOSPC, Calls: []int{2}},
	)
	fs := FS{In: in}
	start := time.Now()
	if err := fs.Write("x"); err != nil {
		t.Fatalf("delayed write failed: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delayed write held for only %s", d)
	}
	if err := fs.Write("x"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("call 2 = %v, want ENOSPC", err)
	}
	if err := fs.Write("x"); err != nil {
		t.Fatalf("call 3 = %v, want nil", err)
	}
	if in.Calls(PointFSWrite) != 3 || in.Fired(PointFSWrite) != 2 {
		t.Fatalf("calls/fired = %d/%d, want 3/2", in.Calls(PointFSWrite), in.Fired(PointFSWrite))
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Err("fs.write"); err != nil {
		t.Fatal(err)
	}
	if n := in.Torn("fs.torn"); n != -1 {
		t.Fatalf("nil Torn = %d", n)
	}
	in.Fire(context.Background(), PointPlan) // must not panic
	if in.Calls("fs.write") != 0 || in.Fired("fs.write") != 0 || in.Seed() != 0 {
		t.Fatal("nil injector reported activity")
	}
	if in.String() != "fault: off" {
		t.Fatalf("nil String = %q", in.String())
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("fs.torn:torn:calls=3:bytes=24; core.explore:panic:p=0.01 ;service.plan:delay:delay=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	if r := rules[0]; r.Point != "fs.torn" || r.Kind != KindTorn || r.TornBytes != 24 || len(r.Calls) != 1 || r.Calls[0] != 3 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := rules[1]; r.Kind != KindPanic || r.Prob != 0.01 {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r := rules[2]; r.Kind != KindDelay || r.Delay != 250*time.Millisecond || r.Prob != 1 {
		t.Fatalf("rule 2 = %+v", r)
	}

	for _, bad := range []string{
		"",
		"fs.write",
		"fs.write:whatever",
		"fs.write:error:p=2",
		"fs.write:error:calls=0",
		"fs.write:error:bogus=1",
		"fs.write:error:p",
		"service.plan:delay",
		"fs.torn:torn:bytes=-1",
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) accepted", bad)
		}
	}
}

func TestRuleStringRoundTrips(t *testing.T) {
	rules := []Rule{
		// Prob 1 because ParseRules defaults to it (Calls wins when set).
		{Point: "fs.torn", Kind: KindTorn, Prob: 1, Calls: []int{3}, TornBytes: 24},
		{Point: "core.explore", Kind: KindPanic, Prob: 0.05},
		{Point: "service.plan", Kind: KindDelay, Prob: 1, Delay: 100 * time.Millisecond},
	}
	for _, r := range rules {
		back, err := ParseRules(r.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", r.String(), err)
		}
		if fmt.Sprintf("%+v", back[0]) != fmt.Sprintf("%+v", r) {
			t.Fatalf("round trip %q: %+v != %+v", r.String(), back[0], r)
		}
	}
}
