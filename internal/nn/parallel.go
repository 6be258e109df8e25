package nn

import (
	"runtime"
	"sync"
)

// Loop is the body of a range-parallel loop: Run processes the indices
// [lo, hi). A body must not write memory that another shard reads or
// writes at the same time, and must not call Team.For itself.
type Loop interface {
	Run(lo, hi int)
}

// Team runs range-parallel loops on up to GOMAXPROCS goroutines: the
// calling goroutine plus process-wide helper goroutines that are started on
// first use and then idle between loops. Dispatching a shard sends a value
// over a channel and the Team owns its WaitGroup, so a loop allocates
// nothing. A nil *Team runs every loop on the calling goroutine.
//
// How the range is split never changes a result: each body computes every
// index with the same operations whichever shard it lands in, so the output
// is bit-identical for any GOMAXPROCS. A Team runs one loop at a time; use
// one Team per goroutine that dispatches loops.
type Team struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked any
}

// shard is one contiguous piece of a loop handed to a helper.
type shard struct {
	body   Loop
	lo, hi int
	team   *Team
}

var helpers struct {
	mu    sync.Mutex
	n     int
	shard chan shard
}

func init() { helpers.shard = make(chan shard) }

// startHelpers makes sure at least n helper goroutines exist.
func startHelpers(n int) {
	helpers.mu.Lock()
	for ; helpers.n < n; helpers.n++ {
		go func() {
			for s := range helpers.shard {
				s.team.run(s.body, s.lo, s.hi)
				s.team.wg.Done()
			}
		}()
	}
	helpers.mu.Unlock()
}

// run executes one shard, parking a panic on the Team so that For can
// re-raise it on the calling goroutine once every shard has stopped (a
// panic on a helper goroutine would otherwise kill the process, and one on
// the caller would leave helpers writing into scratch it no longer owns).
func (t *Team) run(body Loop, lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			if t.panicked == nil {
				t.panicked = r
			}
			t.mu.Unlock()
		}
	}()
	body.Run(lo, hi)
}

// For runs body over [0, n) split into at most GOMAXPROCS contiguous
// shards. cost is the approximate number of multiply-adds one index takes;
// it sets the smallest shard worth handing to another goroutine, so that
// small loops run on the caller alone. Shards go to idle helpers in order until
// one finds none; the calling goroutine then runs the first shard followed
// by the shards no helper took, in order. For returns when every shard has
// finished and re-panics with the first panic any shard raised.
func (t *Team) For(n, cost int, body Loop) {
	k := 1
	if t != nil {
		k = runtime.GOMAXPROCS(0)
	}
	if m := n / grainFor(cost); m < k {
		k = m
	}
	if k <= 1 {
		if n > 0 {
			body.Run(0, n)
		}
		return
	}
	startHelpers(k - 1)
	s := 1
dispatch:
	for ; s < k; s++ {
		t.wg.Add(1)
		select {
		case helpers.shard <- shard{body: body, lo: n * s / k, hi: n * (s + 1) / k, team: t}:
		default:
			t.wg.Done()
			break dispatch
		}
	}
	t.run(body, 0, n/k)
	for ; s < k; s++ {
		t.run(body, n*s/k, n*(s+1)/k)
	}
	t.wg.Wait()
	if p := t.panicked; p != nil {
		t.panicked = nil
		panic(p)
	}
}

// grainFor returns the smallest shard, in loop indices, that carries about
// minShardWork multiply-adds when each index costs perIndex of them.
func grainFor(perIndex int) int {
	const minShardWork = 1 << 14
	if perIndex >= minShardWork {
		return 1
	}
	return minShardWork / max(perIndex, 1)
}
