package fleet

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/service"
)

// TestReplicaReregisteredDuringJobCalls re-registers a job's replica under
// alternating URLs, which swaps its client, while Get, Result and Cancel
// proxy to it. The proxies must resolve the replica to a snapshot taken
// under the coordinator's lock; run under -race to see a violation.
func TestReplicaReregisteredDuringJobCalls(t *testing.T) {
	c := New(chaosOptions(nil, nil))
	defer c.Close()
	hang := fault.New(1, fault.Rule{Point: fault.PointPlan, Kind: fault.KindHang, Prob: 1})
	r := startTestReplica(t, c, "r0", service.Options{Workers: 1, QueueSize: 4, Fault: hang})
	alt := httptest.NewServer(service.NewMux(r.m, nil))
	defer alt.Close()

	ctx := context.Background()
	st, err := c.Submit(ctx, tinyRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFleetState(t, c, st.ID, service.StateRunning)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		urls := [2]string{alt.URL, r.srv.URL}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Register("r0", urls[i%2])
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := c.Get(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Result(ctx, st.ID); err == nil {
			t.Fatal("a running job served a result")
		}
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	waitFleetState(t, c, st.ID, service.StateCancelled)
}
