package cluster_test

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"timeprotection/internal/api"
	"timeprotection/internal/cluster/clustertest"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/service"
)

// TestForwardedCheckVerdict: a failing security check is a correct,
// deterministic result, not a peer fault. When a check key's owner is a
// peer, the forwarding shard must adopt the owner's rendered verdict
// (one check run, on the owner) instead of treating the 422 as a failed
// hop and recomputing locally — and the hop must count as a forward
// hit, not a forward failure, so per-peer health metrics stay honest
// and the peer's breaker never opens on a verdict.
func TestForwardedCheckVerdict(t *testing.T) {
	const verdicts = "Security verdicts, haswell:\nstub table\nCHECK FAILED\n"
	computes := make([]*atomic.Uint64, 2)
	tc := clustertest.Start(t, clustertest.Options{
		Nodes:   2,
		Service: service.Options{Parallel: 2},
		Configure: func(i int, addr string, o *service.Options) {
			n := &atomic.Uint64{}
			computes[i] = n
			o.Runner = func(e experiments.PlanEntry) (string, error) {
				n.Add(1)
				if e.Check {
					return verdicts, experiments.ErrCheckFailed
				}
				return chaosBody(e), nil
			}
		},
	})

	// The exact entry a {"platforms":["haswell"],"check":true} run
	// expands to, rebuilt here to find its ring owner.
	entries := experiments.Expand(experiments.PlanSpec{
		Platforms: []hw.Platform{hw.Haswell()},
		Base:      experiments.Config{Seed: 42}.Canonical(),
		Check:     true,
	})
	if len(entries) != 1 || !entries[0].Check {
		t.Fatalf("plan = %v, want exactly the haswell check entry", entries)
	}
	owner := tc.OwnerIndex(entries[0].CacheKey())
	forwarder := 1 - owner

	post := func(node int) string {
		t.Helper()
		resp, err := http.Post(tc.URL(node, "/v1/runs"), "application/json",
			strings.NewReader(`{"platforms":["haswell"],"check":true}`))
		if err != nil {
			t.Fatalf("POST /v1/runs to node%d: %v", node, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read /v1/runs from node%d: %v", node, err)
		}
		return string(body)
	}

	viaForwarder := post(forwarder)
	if !strings.Contains(viaForwarder, "CHECK FAILED") {
		t.Errorf("forwarded check run lost the verdict table:\n%s", viaForwarder)
	}
	if !strings.Contains(viaForwarder, experiments.ErrCheckFailed.Error()) {
		t.Errorf("forwarded check run lost the error line:\n%s", viaForwarder)
	}
	if got := computes[owner].Load(); got != 1 {
		t.Errorf("owner ran the check %d times, want 1", got)
	}
	if got := computes[forwarder].Load(); got != 0 {
		t.Errorf("forwarding shard recomputed the verdict %d times, want 0 — the 422 must carry it", got)
	}

	st := tc.Nodes[forwarder].Cluster.Stats()
	if st.Forwards != 1 || st.Failovers != 0 {
		t.Errorf("forwarder cluster stats: forwards=%d failovers=%d, want 1 forward, 0 failovers", st.Forwards, st.Failovers)
	}
	for _, p := range st.Peers {
		if p.ForwardFails != 0 {
			t.Errorf("peer %s: %d forward failures recorded for a deterministic verdict", p.Addr, p.ForwardFails)
		}
		if p.ForwardHits != p.Forwards {
			t.Errorf("peer %s: %d hits of %d forwards — verdict hops must count as hits", p.Addr, p.ForwardHits, p.Forwards)
		}
		if !p.Alive {
			t.Errorf("peer %s marked down by a verdict — its breaker must not open", p.Addr)
		}
	}

	// Byte-identity across entry points: the owner's local run renders
	// exactly what the forwarding shard served.
	if viaOwner := post(owner); viaOwner != viaForwarder {
		t.Errorf("check run differs by entry shard:\nowner:     %q\nforwarder: %q", viaOwner, viaForwarder)
	}
}

// TestForwardedDriverFailure: a failed driver run is as deterministic
// as a check verdict, so it too must not count as a peer fault. When
// the owner answers a read-through with its 500 `internal` envelope,
// the forwarding shard reports that failure as the request's result:
// the driver runs once, on the owner; the forwarder runs nothing and
// keeps the owner marked alive, so the owner's healthy keys still
// forward.
func TestForwardedDriverFailure(t *testing.T) {
	const failing = "stub driver failed"
	computes := make([]*atomic.Uint64, 2)
	tc := clustertest.Start(t, clustertest.Options{
		Nodes:   2,
		Service: service.Options{Parallel: 2},
		Configure: func(i int, addr string, o *service.Options) {
			n := &atomic.Uint64{}
			computes[i] = n
			o.Runner = func(e experiments.PlanEntry) (string, error) {
				n.Add(1)
				if e.Config.Seed == 0 {
					return "", errors.New(failing)
				}
				return chaosBody(e), nil
			}
		},
	})

	owner := tc.OwnerIndex(chaosEntry(0).CacheKey())
	forwarder := 1 - owner
	for try := 1; try <= 2; try++ {
		resp, body := tc.Get(forwarder, chaosPath(0))
		env, ok := api.DecodeError(body)
		if resp.StatusCode != http.StatusInternalServerError || !ok || env.Code != api.CodeInternal || !strings.Contains(env.Message, failing) {
			t.Fatalf("request %d via forwarder: status %d body %q, want the owner's 500 internal", try, resp.StatusCode, body)
		}
		if got := computes[owner].Load(); got != uint64(try) {
			t.Errorf("after request %d the owner ran the driver %d times, want %d (a failure is never cached)", try, got, try)
		}
		if got := computes[forwarder].Load(); got != 0 {
			t.Errorf("forwarding shard reran the failing driver %d times, want 0", got)
		}
	}

	st := tc.Nodes[forwarder].Cluster.Stats()
	if st.Failovers != 0 {
		t.Errorf("forwarder recorded %d failovers for a driver failure, want 0", st.Failovers)
	}
	for _, p := range st.Peers {
		if p.ForwardFails != 0 || !p.Alive {
			t.Errorf("peer %s: %d forward failures, alive=%v — a driver failure must not mark the owner down", p.Addr, p.ForwardFails, p.Alive)
		}
	}
	if errs := tc.Nodes[forwarder].Service.Snapshot().Artefacts.Errors; errs != 2 {
		t.Errorf("forwarder ledger errors = %d, want the 2 reported failures", errs)
	}

	// The owner stays routable: its next healthy key forwards.
	seed := int64(-1)
	for s := int64(1); s < 200; s++ {
		if tc.OwnerIndex(chaosEntry(s).CacheKey()) == owner {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatalf("no other key owned by node%d in 200 seeds", owner)
	}
	resp, body := tc.Get(forwarder, chaosPath(seed))
	if resp.StatusCode != 200 || resp.Header.Get(api.HeaderCache) != "forward" || string(body) != chaosBody(chaosEntry(seed)) {
		t.Errorf("healthy key via forwarder: status %d X-Cache %q body %q, want a forward", resp.StatusCode, resp.Header.Get(api.HeaderCache), body)
	}
}
