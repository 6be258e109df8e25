package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obsv"
)

// chaosSeeds are the schedules every chaos scenario runs under. Each
// subtest logs its injector line (seed + schedule), so any failure
// reproduces bit-exactly: fault decisions are pure functions of
// (seed, point, call number), independent of goroutine interleaving.
var chaosSeeds = []int64{1, 42, 977}

// memSink captures lifecycle events for assertions.
type memSink struct {
	mu     sync.Mutex
	events []obsv.Event
}

func (s *memSink) Emit(e obsv.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
	return nil
}

func (s *memSink) count(typ string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func (s *memSink) first(typ string) (obsv.Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.events {
		if e.Type == typ {
			return e, true
		}
	}
	return obsv.Event{}, false
}

// seededRequest is tinyRequest with a per-subtest planner seed, so jobs in
// different subtests carry different fingerprints.
func seededRequest(t testing.TB, seed int64) Request {
	req := tinyRequest(t)
	req.Params.Seed = seed
	return req
}

// TestChaosPanicFailsOnlyItsJob: an injected panic in the first planning
// run fails that job alone — the worker goroutine survives and completes
// the next job on the same (single-worker) pool.
func TestChaosPanicFailsOnlyItsJob(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(seed, fault.Rule{Point: fault.PointPlan, Kind: fault.KindPanic, Calls: []int{1}})
			t.Log(in.String())
			sink := &memSink{}
			m := newTestManager(t, Options{Workers: 1, Events: sink, Fault: in})

			stA, err := m.Submit(seededRequest(t, 101))
			if err != nil {
				t.Fatal(err)
			}
			final := waitTerminal(t, m, stA.ID)
			if final.State != StateFailed || !strings.Contains(final.Error, "injected panic") {
				t.Fatalf("poisoned job = %s (%q), want failed with the injected panic", final.State, final.Error)
			}

			stB, err := m.Submit(seededRequest(t, 102))
			if err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, m, stB.ID); got.State != StateDone {
				t.Fatalf("job after the panic = %s (%q), want done — worker did not survive", got.State, got.Error)
			}
			if sink.count(EventPanic) != 1 {
				t.Fatalf("recorded %d %s events, want 1", sink.count(EventPanic), EventPanic)
			}
			t.Log(in.Stats())
		})
	}
}

// TestChaosCrashRestartRequeuesJournaledJobs: a server killed mid-run
// (simulated by abandoning a manager whose worker is parked before
// planning) leaves a running journal record behind; the next boot re-queues
// the job under its original ID and completes it.
func TestChaosCrashRestartRequeuesJournaledJobs(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			block := make(chan struct{})
			defer close(block) // release the abandoned worker after the test

			m1, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			m1.testBeforeRun = func(*job) { <-block }
			st, err := m1.Submit(seededRequest(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			// Wait for the running journal record to hit the disk — the
			// instant after which a crash must not lose the job.
			recPath := recordFile(dir, st.ID)
			waitFor(t, func() bool {
				data, err := os.ReadFile(recPath)
				if err != nil {
					return false
				}
				rec, err := decodeRecord(data)
				return err == nil && rec.Status.State == StateRunning
			}, "running journal record never persisted")
			// SIGKILL-style crash: m1 is abandoned wholesale — no drain, no
			// terminal records, its worker parked forever.

			sink := &memSink{}
			m2 := newTestManager(t, Options{Dir: dir, Events: sink})
			got, err := m2.Get(st.ID)
			if err != nil {
				t.Fatalf("restarted manager lost the journaled job: %v", err)
			}
			if got.Attempts != 1 {
				t.Fatalf("requeued job attempts = %d, want 1", got.Attempts)
			}
			final := waitTerminal(t, m2, st.ID)
			if final.State != StateDone {
				t.Fatalf("requeued job = %s (%q), want done", final.State, final.Error)
			}
			if _, err := m2.Result(st.ID); err != nil {
				t.Fatal(err)
			}
			if sink.count(EventRequeued) != 1 {
				t.Fatalf("recorded %d %s events, want 1", sink.count(EventRequeued), EventRequeued)
			}
		})
	}
}

// TestChaosSlowJournalWriteKeepsLatestRecord reproduces the journal
// ordering race deterministically. With the single worker held on a first
// job, a second job's queued record is written slowly
// (fs.write:delay:delay=50ms:calls=3), and the job is cancelled while that
// write is held. Because each record is snapshotted and written under the
// job's journal lock, the cancelled record waits for the queued one instead
// of being overwritten by it: the on-disk record is the terminal one, so a
// restart would not run the cancelled job.
func TestChaosSlowJournalWriteKeepsLatestRecord(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Calls 1 and 2 are the first job's queued and running records.
			in := fault.New(seed, fault.Rule{Point: fault.PointFSWrite, Kind: fault.KindDelay, Calls: []int{3}, Delay: 50 * time.Millisecond})
			t.Log(in.String())
			dir := t.TempDir()
			started, block := make(chan struct{}, 1), make(chan struct{})
			m := newTestManager(t, Options{Dir: dir, Workers: 1, Fault: in, testBeforeRun: func(*job) {
				started <- struct{}{}
				<-block
			}})
			release := sync.OnceFunc(func() { close(block) })
			t.Cleanup(release) // runs before the manager's shutdown

			first, err := m.Submit(seededRequest(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			<-started // the worker is held; both first-job records are written

			var wg sync.WaitGroup
			var second Status
			var submitErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				second, submitErr = m.Submit(seededRequest(t, seed+1))
			}()
			waitFor(t, func() bool { return in.Calls(fault.PointFSWrite) == 3 }, "queued record never written")
			// The queued record's write is now held; cancel the job.
			var id string
			for _, st := range m.List() {
				if st.ID != first.ID {
					id = st.ID
				}
			}
			if st, err := m.Cancel(id); err != nil || st.State != StateCancelled {
				t.Fatalf("cancel = %+v, %v", st, err)
			}
			wg.Wait()
			if submitErr != nil || second.ID != id {
				t.Fatalf("submit = %+v, %v", second, submitErr)
			}
			data, err := os.ReadFile(recordFile(dir, id))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := decodeRecord(data)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Status.State != StateCancelled {
				t.Fatalf("journal holds a %s record for a cancelled job: the queued snapshot landed last", rec.Status.State)
			}
			release()
			if final := waitTerminal(t, m, first.ID); final.State != StateDone {
				t.Fatalf("first job = %s (%q), want done", final.State, final.Error)
			}
		})
	}
}

// TestChaosCrashLoopAbandonsJobAfterMaxAttempts: a job whose every run is
// interrupted by a crash is re-queued MaxAttempts times, then failed on
// the next boot instead of crash-looping forever.
func TestChaosCrashLoopAbandonsJobAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	defer close(block)

	m1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m1.testBeforeRun = func(*job) { <-block }
	st, err := m1.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	recPath := recordFile(dir, st.ID)
	waitRunning := func(m *Manager) {
		t.Helper()
		waitFor(t, func() bool {
			data, err := os.ReadFile(recPath)
			if err != nil {
				return false
			}
			rec, err := decodeRecord(data)
			return err == nil && rec.Status.State == StateRunning && rec.Attempts == mAttempts(m, st.ID)
		}, "running journal record never persisted")
	}
	waitRunning(m1)

	// Crash-loop: each boot re-queues, parks the job before planning, and
	// is abandoned again. MaxAttempts=2 allows attempts 1 and 2. The hook
	// rides in through Options — a re-queued job can start before New
	// returns, too early to set the hook on the Manager.
	for life := 0; life < 2; life++ {
		m, err := New(Options{Dir: dir, MaxAttempts: 2, testBeforeRun: func(*job) { <-block }})
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(m)
	}

	sink := &memSink{}
	m4 := newTestManager(t, Options{Dir: dir, MaxAttempts: 2, Events: sink})
	final, err := m4.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "abandoned") {
		t.Fatalf("crash-looping job = %s (%q), want failed/abandoned", final.State, final.Error)
	}
	if sink.count(EventPoisoned) != 1 {
		t.Fatalf("recorded %d %s events, want 1", sink.count(EventPoisoned), EventPoisoned)
	}
}

// mAttempts reads a job's attempt counter through the manager.
func mAttempts(m *Manager, id string) int {
	st, err := m.Get(id)
	if err != nil {
		return -1
	}
	return st.Attempts
}

// TestChaosTornWriteQuarantinedOnBoot: a torn terminal-record write (the
// rename landed, the content is truncated) passes silently at write time —
// and is caught by the envelope checksum on the next boot, which moves the
// file to corrupt/, counts it, and reports it in a boot event.
func TestChaosTornWriteQuarantinedOnBoot(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			// One job persists exactly three records: the queued journal,
			// the running journal, the terminal record. Tear the third.
			in := fault.New(seed, fault.Rule{Point: fault.PointFSTorn, Kind: fault.KindTorn, Calls: []int{3}, TornBytes: 40})
			t.Log(in.String())
			m1, err := New(Options{Dir: dir, Fault: in})
			if err != nil {
				t.Fatal(err)
			}
			st, err := m1.Submit(seededRequest(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, m1, st.ID); got.State != StateDone {
				t.Fatalf("job = %s (%q), want done (the torn write must look successful)", got.State, got.Error)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := m1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if in.Fired(fault.PointFSTorn) != 1 {
				t.Fatalf("torn rule fired %d times, want 1 (%s)", in.Fired(fault.PointFSTorn), in.Stats())
			}

			reg := obsv.NewRegistry()
			skippedCounter := reg.Counter("nptsn_service_records_skipped_total", "")
			sink := &memSink{}
			m2 := newTestManager(t, Options{Dir: dir, Metrics: reg, Events: sink})
			if _, err := m2.Get(st.ID); !errors.Is(err, ErrNotFound) {
				t.Fatalf("torn record still resolves: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, corruptDirName, "job-"+st.ID+".json")); err != nil {
				t.Fatalf("torn record not quarantined: %v", err)
			}
			if got := skippedCounter.Value(); got != 1 {
				t.Fatalf("records_skipped_total = %v, want 1", got)
			}
			ev, ok := sink.first(EventStoreCorrupt)
			if !ok {
				t.Fatalf("no %s boot event", EventStoreCorrupt)
			}
			if !strings.Contains(ev.Msg, st.ID) {
				t.Fatalf("boot event %q does not name the torn record", ev.Msg)
			}
		})
	}
}

// TestChaosWatchdogInterruptsStuckJob: exploration hangs on an injected
// fault (releasing only on context cancellation — a livelock, not a
// crash); the watchdog notices the silent heartbeat, cancels the job and
// marks it failed while the service keeps running.
func TestChaosWatchdogInterruptsStuckJob(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(seed, fault.Rule{Point: fault.PointExplore, Kind: fault.KindHang, Prob: 1})
			t.Log(in.String())
			sink := &memSink{}
			m := newTestManager(t, Options{StuckTimeout: 250 * time.Millisecond, Events: sink, Fault: in})
			st, err := m.Submit(seededRequest(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			final := waitTerminal(t, m, st.ID)
			if final.State != StateFailed || !strings.Contains(final.Error, "stalled") {
				t.Fatalf("hung job = %s (%q), want failed/stalled", final.State, final.Error)
			}
			if sink.count(EventStalled) != 1 {
				t.Fatalf("recorded %d %s events, want 1", sink.count(EventStalled), EventStalled)
			}
			// The pool survives a stalled job: a clean manager run would be
			// needed for a fresh plan, but status and results keep serving.
			if _, err := m.Get(st.ID); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosPoisonFingerprintQuarantined: a fingerprint that panics the
// planner PoisonPanics times is refused with ErrPoisoned instead of being
// fed to a worker again.
func TestChaosPoisonFingerprintQuarantined(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(seed, fault.Rule{Point: fault.PointPlan, Kind: fault.KindPanic, Prob: 1})
			t.Log(in.String())
			m := newTestManager(t, Options{PoisonPanics: 2, Fault: in})
			req := seededRequest(t, seed)
			for i := 0; i < 2; i++ {
				st, err := m.Submit(req)
				if err != nil {
					t.Fatalf("submit %d: %v", i+1, err)
				}
				if got := waitTerminal(t, m, st.ID); got.State != StateFailed {
					t.Fatalf("crashing job %d = %s, want failed", i+1, got.State)
				}
			}
			if _, err := m.Submit(req); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("third submission of a double-panicked fingerprint: %v, want ErrPoisoned", err)
			}
			// A different fingerprint is still welcome (and still crashes,
			// but that is its own budget).
			if _, err := m.Submit(seededRequest(t, seed+1000)); err != nil {
				t.Fatalf("unrelated fingerprint rejected: %v", err)
			}
		})
	}
}

// TestChaosENOSPCPersistKeepsServing: every record write failing with
// ENOSPC degrades persistence, not planning — the job completes, its
// result serves from memory, and each store failure is reported.
func TestChaosENOSPCPersistKeepsServing(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(seed, fault.Rule{Point: fault.PointFSWrite, Kind: fault.KindENOSPC, Prob: 1})
			t.Log(in.String())
			dir := t.TempDir()
			sink := &memSink{}
			m := newTestManager(t, Options{Dir: dir, Events: sink, Fault: in})
			st, err := m.Submit(seededRequest(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, m, st.ID); got.State != StateDone {
				t.Fatalf("job on a full disk = %s (%q), want done", got.State, got.Error)
			}
			if _, err := m.Result(st.ID); err != nil {
				t.Fatalf("in-memory result lost: %v", err)
			}
			if _, err := os.Stat(recordFile(dir, st.ID)); !os.IsNotExist(err) {
				t.Fatal("a record landed despite every write failing")
			}
			ev, ok := sink.first("store_error")
			if !ok {
				t.Fatal("store failures were swallowed silently")
			}
			if !strings.Contains(ev.Msg, "no space left") && !strings.Contains(ev.Msg, "ENOSPC") {
				t.Fatalf("store_error %q does not surface ENOSPC", ev.Msg)
			}
		})
	}
}

// TestChaosScheduleIsReproducible: the same seed and schedule fire on the
// same record-store calls across two full manager lives — the property
// that lets any chaos failure be replayed from its logged seed line.
func TestChaosScheduleIsReproducible(t *testing.T) {
	run := func(seed int64) (fired, calls int) {
		in := fault.New(seed, fault.Rule{Point: "fs.*", Kind: fault.KindError, Prob: 0.5})
		dir := t.TempDir()
		m := newTestManager(t, Options{Dir: dir, Fault: in})
		st, err := m.Submit(tinyRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, st.ID)
		// Drain before reading counters: the terminal record is persisted
		// after the job's terminal channel closes.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return in.Fired(fault.PointFSWrite) + in.Fired(fault.PointFSSync) + in.Fired(fault.PointFSRename),
			in.Calls(fault.PointFSWrite) + in.Calls(fault.PointFSSync) + in.Calls(fault.PointFSRename)
	}
	for _, seed := range chaosSeeds {
		f1, c1 := run(seed)
		f2, c2 := run(seed)
		if f1 != f2 || c1 != c2 {
			t.Fatalf("seed %d: life 1 fired %d/%d, life 2 fired %d/%d — schedule not reproducible",
				seed, f1, c1, f2, c2)
		}
		t.Logf("seed %d: fired %d of %d fs calls, both lives", seed, f1, c1)
	}
}
