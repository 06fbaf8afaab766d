package cluster_test

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"timeprotection/internal/api"
	"timeprotection/internal/cluster/clustertest"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/service"
)

// chaosBody is the deterministic fake-driver output for an entry: the
// same bytes on every node, so byte-identity assertions survive any
// placement the ring chooses.
func chaosBody(e experiments.PlanEntry) string {
	return "body " + e.CanonicalKey() + "\n"
}

// chaosEntry builds the table2 entry for one seed — 20 seeds give 20
// distinct content keys spread across the ring.
func chaosEntry(seed int64) experiments.PlanEntry {
	art, ok := experiments.LookupArtefact("table2")
	if !ok {
		panic("table2 not in registry")
	}
	cfg := experiments.Config{Platform: hw.Haswell(), Samples: 30, Seed: seed}
	return experiments.PlanEntry{Artefact: art, Config: cfg.Canonical()}
}

func chaosPath(seed int64) string {
	return fmt.Sprintf("/v1/artefacts/table2?platform=haswell&samples=30&seed=%d", seed)
}

// TestClusterFailover is the chaos drill the tentpole promises: a
// 3-node cluster with durable stores and per-entry replication, a
// driver that fails every key's first run (an error or a panic, reported
// once as a 500 and neither cached nor replicated), the owning shard of
// a batch of keys killed mid-workload.
// The surviving ring must route around the corpse: the replica
// successor serves the dead owner's keys from its store (X-Cache:
// disk), the third node forwards to the replica (X-Cache: forward),
// every byte stays identical, no key wedges, no worker dies, and every
// survivor's disposition ledger still balances.
func TestClusterFailover(t *testing.T) {
	var computes atomic.Uint64
	var mu sync.Mutex
	ran := make(map[string]bool) // keys whose first run already failed
	tc := clustertest.Start(t, clustertest.Options{
		Nodes:     3,
		Replicas:  1,
		StoreRoot: t.TempDir(),
		Service: service.Options{
			Parallel: 4,
			Runner: func(e experiments.PlanEntry) (string, error) {
				computes.Add(1)
				key := e.CanonicalKey()
				mu.Lock()
				first := !ran[key]
				ran[key] = true
				mu.Unlock()
				switch {
				case first && e.Config.Seed%2 == 1:
					panic("first run of " + key)
				case first:
					return "", fmt.Errorf("first run of %s failed", key)
				}
				return chaosBody(e), nil
			},
		},
	})

	// Phase 1: compute 20 keys, each through its owning shard. Owners
	// compute locally, so no peer has a key in its memory cache —
	// failover below must go through replicas. Each key's first request
	// meets its failing first run and answers 500; the client's second
	// request computes it cleanly.
	const keys = 20
	var errorsAt [3]uint64 // 500s each owner served in phase 1
	for seed := int64(0); seed < keys; seed++ {
		e := chaosEntry(seed)
		owner := tc.OwnerIndex(e.CacheKey())
		resp, body := tc.Get(owner, chaosPath(seed))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("seed %d via owner node%d: status %d, want the first run's 500: %s", seed, owner, resp.StatusCode, body)
		}
		errorsAt[owner]++
		resp, body = tc.Get(owner, chaosPath(seed))
		if resp.StatusCode != 200 {
			t.Fatalf("seed %d via owner node%d: status %d: %s", seed, owner, resp.StatusCode, body)
		}
		if string(body) != chaosBody(e) {
			t.Fatalf("seed %d: body %q, want %q", seed, body, chaosBody(e))
		}
	}

	// Drain write-behind replication, then verify the pipeline: every
	// computed entry was pushed to exactly one successor, nothing failed,
	// zero lag — and no failed run was replicated.
	for i, n := range tc.Nodes {
		n.Cluster.WaitReplication()
		r := n.Cluster.Stats().Replication
		if r.Failed != 0 || r.Pending != 0 {
			t.Fatalf("node%d replication: %+v (want no failures, no lag)", i, r)
		}
	}
	var acked uint64
	for _, n := range tc.Nodes {
		acked += n.Cluster.Stats().Replication.Acked
	}
	if acked != keys {
		t.Fatalf("replication acked %d copies for %d keys, want one replica each", acked, keys)
	}

	// Phase 2: SIGKILL-equivalent. Node 0's listener and connections die
	// abruptly; the survivors learn via an explicit probe sweep (the
	// daemon's background prober, run synchronously for determinism).
	tc.Kill(0)
	for _, i := range []int{1, 2} {
		tc.Nodes[i].Cluster.Probe()
		for _, p := range tc.Nodes[i].Cluster.Stats().Peers {
			if p.Addr == tc.Nodes[0].Addr && p.Alive {
				t.Fatalf("node%d still thinks killed node0 is alive after probe", i)
			}
		}
	}

	// Phase 3: the dead shard's keys survive. For each key node 0 owned,
	// the first ring successor holds the replica and must serve it from
	// its durable store; the remaining survivor must forward to it.
	before := computes.Load()
	orphans := 0
	for seed := int64(0); seed < keys; seed++ {
		e := chaosEntry(seed)
		key := e.CacheKey()
		if tc.OwnerIndex(key) != 0 {
			continue
		}
		orphans++
		succ := tc.Nodes[1].Cluster.Successors(key, 3)
		replica := tc.Index(succ[1])
		other := tc.Index(succ[2])

		resp, body := tc.Get(replica, chaosPath(seed))
		if resp.StatusCode != 200 || string(body) != chaosBody(e) {
			t.Fatalf("seed %d via replica node%d: status %d body %q", seed, replica, resp.StatusCode, body)
		}
		if xc := resp.Header.Get(api.HeaderCache); xc != "disk" {
			t.Errorf("seed %d via replica node%d: X-Cache %q, want disk (replicated store entry)", seed, replica, xc)
		}

		resp, body = tc.Get(other, chaosPath(seed))
		if resp.StatusCode != 200 || string(body) != chaosBody(e) {
			t.Fatalf("seed %d via node%d: status %d body %q", seed, other, resp.StatusCode, body)
		}
		if xc := resp.Header.Get(api.HeaderCache); xc != "forward" {
			t.Errorf("seed %d via node%d: X-Cache %q, want forward (routed around dead owner)", seed, other, xc)
		}
	}
	if orphans == 0 {
		t.Fatal("node 0 owned no keys in a 20-key corpus — test exercised nothing")
	}
	if computes.Load() != before {
		t.Errorf("failover re-ran drivers %d times; every orphaned key had a live replica", computes.Load()-before)
	}
	var failovers uint64
	for _, i := range []int{1, 2} {
		failovers += tc.Nodes[i].Cluster.Stats().Failovers
	}
	if failovers == 0 {
		t.Error("no failover was recorded while serving a dead shard's keys")
	}

	// Phase 4: full sweep through both survivors — every key, dead
	// owner's included, keeps answering. A wedged singleflight key or a
	// lost pool worker would hang or 5xx here.
	for seed := int64(0); seed < keys; seed++ {
		e := chaosEntry(seed)
		for _, i := range []int{1, 2} {
			resp, body := tc.Get(i, chaosPath(seed))
			if resp.StatusCode != 200 || string(body) != chaosBody(e) {
				t.Fatalf("post-failover seed %d via node%d: status %d body %q", seed, i, resp.StatusCode, body)
			}
		}
	}

	// The survivors' books still balance: every request is accounted to
	// exactly one disposition, no pool worker died, nothing is in flight.
	for _, i := range []int{1, 2} {
		m := tc.Nodes[i].Service.Snapshot()
		a := m.Artefacts
		if a.Hits+a.Disk+a.Misses+a.Errors+a.Forwards != a.Requests {
			t.Errorf("node%d ledger: hits=%d disk=%d misses=%d errors=%d forwards=%d != requests=%d",
				i, a.Hits, a.Disk, a.Misses, a.Errors, a.Forwards, a.Requests)
		}
		if a.Errors != errorsAt[i] {
			t.Errorf("node%d returned %d artefact errors, want its %d phase-1 first runs; failover must never surface one",
				i, a.Errors, errorsAt[i])
		}
		if m.Pool.Workers != 4 || m.Pool.Active != 0 {
			t.Errorf("node%d pool: %d workers, %d active — want 4 idle workers", i, m.Pool.Workers, m.Pool.Active)
		}
		if m.Requests.Inflight != 0 {
			t.Errorf("node%d has %d requests still in flight after the workload", i, m.Requests.Inflight)
		}
	}
}
