package cluster_test

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/cluster"
	"timeprotection/internal/cluster/clustertest"
	"timeprotection/internal/service"
)

// panicOnce is a RoundTripper whose first read-through panics. It holds
// the panic until every client request has reached the shard, so the
// other requests for the key are waiting on the panicking hop.
type panicOnce struct {
	next    http.RoundTripper
	fired   atomic.Bool
	proceed chan struct{}
}

func (p *panicOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == cluster.EntryPath && p.fired.CompareAndSwap(false, true) {
		<-p.proceed
		panic("transport exploded")
	}
	return p.next.RoundTrip(req)
}

// TestForwardPanicFallsBackToLocalCompute: a panic in the forwarding
// hop used to hand every request collapsed onto it an empty body with a
// nil error; the shard served it as a 200 and cached it, so the key
// answered empty as X-Cache: hit from then on. Now the panic reaches
// the hop's caller and every waiter as an error, each falls back to
// local compute, and every response carries the real bytes.
func TestForwardPanicFallsBackToLocalCompute(t *testing.T) {
	rt := &panicOnce{next: http.DefaultTransport, proceed: make(chan struct{})}
	tc := clustertest.Start(t, clustertest.Options{
		Nodes: 2,
		// A cap far above the load, so node 0 counts requests in flight.
		Service: service.Options{MaxInflight: 64},
		ClusterConfigure: func(i int, o *cluster.Options) {
			if i == 0 {
				o.Client = &http.Client{Transport: rt}
			}
		},
	})

	// A key node 1 owns, requested through node 0: node 0 forwards.
	seed := int64(-1)
	for s := int64(0); s < 200; s++ {
		if tc.OwnerIndex(chaosEntry(s).CacheKey()) == 1 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no key owned by node 1 in 200 seeds")
	}
	want, err := chaosEntry(seed).Output()
	if err != nil {
		t.Fatalf("PlanEntry.Output: %v", err)
	}

	const clients = 6
	type reply struct {
		status int
		cache  string
		body   string
		err    error
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body, err := tc.TryGet(0, chaosPath(seed))
			if err != nil {
				replies[i].err = err
				return
			}
			replies[i] = reply{status: resp.StatusCode, cache: resp.Header.Get(api.HeaderCache), body: string(body)}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tc.Nodes[0].Service.Snapshot().Requests.Inflight < clients {
		if time.Now().After(deadline) {
			t.Fatal("client requests never all reached node 0")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the requests past routing onto the held hop, then fire.
	time.Sleep(50 * time.Millisecond)
	close(rt.proceed)
	wg.Wait()

	for i, r := range replies {
		switch {
		case r.err != nil:
			t.Errorf("client %d: %v", i, r.err)
		case r.status != http.StatusOK || r.body == "":
			t.Errorf("client %d: status %d, X-Cache %q, %d-byte body", i, r.status, r.cache, len(r.body))
		case r.body != want:
			t.Errorf("client %d: body differs from PlanEntry.Output (X-Cache %q)", i, r.cache)
		}
	}

	// The panicking hop and its waiters fell back to local compute.
	m := tc.Nodes[0].Service.Snapshot()
	if m.Artefacts.Errors != 0 || m.Artefacts.Misses == 0 || m.Artefacts.Misses+m.Artefacts.Forwards != clients {
		t.Errorf("node 0 dispositions = %+v, want %d served, at least one computed locally", m.Artefacts, clients)
	}
	if m.Singleflight.Panics != 0 {
		t.Errorf("service singleflight saw %d panics; the hop's panic should stop at the cluster layer", m.Singleflight.Panics)
	}
	if f := tc.Nodes[0].Cluster.Stats().Failovers; f == 0 {
		t.Error("no failover recorded for the panicking hop")
	}

	// Nothing empty was cached: the next request is a hit with the bytes.
	resp, body := tc.Get(0, chaosPath(seed))
	if xc := resp.Header.Get(api.HeaderCache); xc != "hit" || string(body) != want {
		t.Errorf("follow-up: X-Cache %q, %d-byte body, want a hit with PlanEntry.Output", xc, len(body))
	}
}
