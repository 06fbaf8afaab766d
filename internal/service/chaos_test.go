package service

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/experiments"
	"timeprotection/internal/fault"
)

// TestChaosMixedLoadWithFaultInjection drives mixed GET/POST load
// against a runner that deterministically errors, panics and stalls,
// and asserts the daemon's availability invariants: every request
// eventually succeeds on retry, no singleflight key wedges, no worker
// is lost, active work returns to zero, hit/miss accounting stays
// exact, and the cache converges to serving every config as a hit.
// Run under -race in CI; the Close in cleanup doubles as the drain
// check (it hangs if any worker died).
func TestChaosMixedLoadWithFaultInjection(t *testing.T) {
	base := func(e experiments.PlanEntry) (string, error) {
		return fmt.Sprintf("%s seed=%d\n", e.JobName(), e.Config.Seed), nil
	}
	injector := fault.Wrap(base, fault.Config{
		Seed:  42,
		Rates: fault.Rates{Error: 0.3, Panic: 0.25, Latency: 0.3},
		Delay: 200 * time.Microsecond,
	})
	s, ts := newTestServer(t, Options{
		Parallel:  4,
		Queue:     256,
		Runner:    injector.Run,
		Retries:   14,
		RetryBase: 200 * time.Microsecond,
		Timeout:   time.Minute,
	})

	var gets []string
	for _, a := range []string{"table2", "table3", "figure3", "table5"} {
		for seed := 1; seed <= 4; seed++ {
			gets = append(gets, fmt.Sprintf("/v1/artefacts/%s?seed=%d", a, seed))
		}
	}
	post := `{"platforms":["haswell"],"artefacts":["table2","table3","figure3"],"samples":30}`
	const postEntries = 3

	var artefactRequests atomic.Uint64 // counted cache lookups expected
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch i % 3 {
				case 0, 1:
					url := gets[(g*7+i)%len(gets)]
					artefactRequests.Add(1)
					resp, body := get(t, ts.URL+url)
					if resp.StatusCode != 200 {
						t.Errorf("GET %s = %d %q — a fault leaked to the client", url, resp.StatusCode, body)
					}
				case 2:
					artefactRequests.Add(postEntries)
					resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(post))
					if err != nil {
						t.Errorf("POST /v1/runs: %v", err)
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 || strings.Contains(string(body), "tpserved:") {
						t.Errorf("POST /v1/runs = %d, stream:\n%s", resp.StatusCode, body)
					}
				}
				if g == 0 { // one goroutine also pokes the observability endpoints
					get(t, ts.URL+"/metricz")
					get(t, ts.URL+"/healthz")
				}
			}
		}()
	}
	wg.Wait()

	// No wedged singleflight keys.
	if wedged := s.flights.InFlight(); wedged != 0 {
		t.Errorf("%d singleflight keys still in flight after load drained", wedged)
	}

	m := s.Snapshot()
	if m.Pool.Active != 0 {
		t.Errorf("active = %d after load drained, want 0 (no lost accounting)", m.Pool.Active)
	}
	if m.Pool.Workers != 4 {
		t.Errorf("workers = %d, want 4", m.Pool.Workers)
	}
	// Panics were converted at the runner boundary, not absorbed by the
	// pool's last-resort recover — and at least some faults actually
	// fired, or this test proved nothing.
	st := injector.Stats()
	if st.Errors == 0 || st.Panics == 0 || st.Delays == 0 {
		t.Fatalf("fault injection too quiet to be a chaos test: %+v", st)
	}
	if m.RunnerPanics != st.Panics {
		t.Errorf("runner_panics = %d, injector panicked %d times", m.RunnerPanics, st.Panics)
	}
	if m.Pool.Panics != 0 {
		t.Errorf("pool recovered %d panics that should have been converted earlier", m.Pool.Panics)
	}
	// Exact hit/miss accounting: one counted lookup per artefact
	// request, no matter how many retries and re-checks happened.
	if got, want := m.Cache.Hits+m.Cache.Misses, artefactRequests.Load(); got != want {
		t.Errorf("hits+misses = %d, want exactly %d artefact requests", got, want)
	}
	// The one-mutex disposition ledger balances exactly even under
	// chaos: every artefact request has exactly one terminal
	// disposition, and none of them may be an error here.
	a := m.Artefacts
	if a.Requests != artefactRequests.Load() {
		t.Errorf("ledger requests = %d, want %d", a.Requests, artefactRequests.Load())
	}
	if a.Hits+a.Disk+a.Misses+a.Errors != a.Requests {
		t.Errorf("ledger does not balance: %+v", a)
	}
	if a.Errors != 0 || a.Disk != 0 {
		t.Errorf("ledger = %+v, want no errors and no disk tier in this configuration", a)
	}

	// Eventual convergence: after one settling pass (any config the
	// random mix skipped gets its clean run here), every config serves
	// as a cache hit with the clean driver bytes.
	for _, url := range gets {
		if resp, _ := get(t, ts.URL+url); resp.StatusCode != 200 {
			t.Errorf("settling pass %s = %d, want 200", url, resp.StatusCode)
		}
	}
	for _, url := range gets {
		resp, body := get(t, ts.URL+url)
		if resp.StatusCode != 200 || resp.Header.Get(api.HeaderCache) != "hit" {
			t.Errorf("post-chaos %s = %d X-Cache=%q, want cached 200", url, resp.StatusCode, resp.Header.Get(api.HeaderCache))
		}
		if !strings.Contains(body, "seed=") {
			t.Errorf("post-chaos %s body %q not the clean driver output", url, body)
		}
	}
	// And the pool still completes fresh work.
	resp, _ := get(t, ts.URL+"/v1/artefacts/table6?seed=9")
	if resp.StatusCode != 200 {
		t.Errorf("fresh post-chaos run = %d, want 200", resp.StatusCode)
	}
}
