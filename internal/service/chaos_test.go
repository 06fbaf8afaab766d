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
)

// firstRunFails is a stub driver that fails each key's first run and
// succeeds on every later one: odd seeds panic, even seeds return an
// error, and every first run stalls briefly so concurrent requests
// share its flight. Both failures carry firstRunMarker, so a client can
// tell which computation produced a 500.
type firstRunFails struct {
	mu     sync.Mutex
	runs   map[string]int // driver runs per canonical key
	panics atomic.Uint64
}

const firstRunMarker = "first-run failure"

func (f *firstRunFails) run(e experiments.PlanEntry) (string, error) {
	key := e.CanonicalKey()
	f.mu.Lock()
	f.runs[key]++
	n := f.runs[key]
	f.mu.Unlock()
	if n == 1 {
		time.Sleep(200 * time.Microsecond)
		if e.Config.Seed%2 == 1 {
			f.panics.Add(1)
			panic(fmt.Sprintf("%s (%s)", firstRunMarker, e.JobName()))
		}
		return "", fmt.Errorf("%s (%s)", firstRunMarker, e.JobName())
	}
	return fmt.Sprintf("%s seed=%d\n", e.JobName(), e.Config.Seed), nil
}

// TestChaosMixedLoadWithFaultInjection drives mixed GET/POST load
// against a driver whose every key fails (error or panic) on its first
// run, and asserts the daemon's availability invariants: a failure is
// reported once, only by the key's first computation, and is neither
// cached nor retried; no singleflight key wedges, no worker is lost,
// active work returns to zero, the disposition ledger stays exact, and
// the cache converges to serving every config as a hit. Run under
// -race in CI; the Close in cleanup doubles as the drain check (it
// hangs if any worker died).
func TestChaosMixedLoadWithFaultInjection(t *testing.T) {
	stub := &firstRunFails{runs: make(map[string]int)}
	s, ts := newTestServer(t, Options{
		Parallel: 4,
		Queue:    256,
		Runner:   stub.run,
		Timeout:  time.Minute,
	})

	var artefactRequests, failures atomic.Uint64
	check := func(url string) (*http.Response, string) {
		artefactRequests.Add(1)
		resp, body := get(t, url)
		switch {
		case resp.StatusCode == http.StatusInternalServerError && strings.Contains(body, firstRunMarker):
			failures.Add(1)
		case resp.StatusCode != 200:
			t.Errorf("GET %s = %d %q — only a key's first run may fail", url, resp.StatusCode, body)
		}
		return resp, body
	}

	// The batch's entries are computed first, one request at a time, so
	// each fails exactly once here; under load the batch streams hits.
	const postEntries = 3
	post := `{"platforms":["haswell"],"artefacts":["table2","table3","figure3"],"samples":30}`
	for _, a := range []string{"table2", "table3", "figure3"} {
		url := ts.URL + "/v1/artefacts/" + a + "?samples=30"
		if resp, _ := check(url); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("first GET %s = %d, want the stub's first-run 500", url, resp.StatusCode)
		}
		if resp, _ := check(url); resp.StatusCode != 200 {
			t.Fatalf("second GET %s = %d, want 200", url, resp.StatusCode)
		}
	}

	var gets []string
	for _, a := range []string{"table2", "table3", "figure3", "table5"} {
		for seed := 1; seed <= 4; seed++ {
			gets = append(gets, fmt.Sprintf("/v1/artefacts/%s?seed=%d", a, seed))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch i % 3 {
				case 0, 1:
					check(ts.URL + gets[(g*7+i)%len(gets)])
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
	// pool's last-resort recover — and the stub actually panicked, or
	// this test proved nothing.
	if stub.panics.Load() == 0 || failures.Load() == 0 {
		t.Fatalf("stub too quiet to be a chaos test: %d panics, %d failed requests", stub.panics.Load(), failures.Load())
	}
	if m.RunnerPanics != stub.panics.Load() {
		t.Errorf("runner_panics = %d, stub panicked %d times", m.RunnerPanics, stub.panics.Load())
	}
	if m.Pool.Panics != 0 {
		t.Errorf("pool recovered %d panics that should have been converted earlier", m.Pool.Panics)
	}
	// Exact hit/miss accounting: one counted lookup per artefact
	// request, no matter how many re-checks happened.
	if got, want := m.Cache.Hits+m.Cache.Misses, artefactRequests.Load(); got != want {
		t.Errorf("hits+misses = %d, want exactly %d artefact requests", got, want)
	}
	// The one-mutex disposition ledger balances exactly: every artefact
	// request has one terminal disposition, and its errors are exactly
	// the 500s clients saw.
	a := m.Artefacts
	if a.Requests != artefactRequests.Load() {
		t.Errorf("ledger requests = %d, want %d", a.Requests, artefactRequests.Load())
	}
	if a.Hits+a.Disk+a.Misses+a.Errors != a.Requests {
		t.Errorf("ledger does not balance: %+v", a)
	}
	if a.Errors != failures.Load() || a.Disk != 0 {
		t.Errorf("ledger = %+v, want %d errors (the 500s) and no disk tier", a, failures.Load())
	}

	// Eventual convergence: after one settling pass (any config the
	// mix skipped fails its first run here, then computes cleanly),
	// every config serves as a cache hit with the clean driver bytes.
	for _, url := range gets {
		if resp, _ := get(t, ts.URL+url); resp.StatusCode != 200 {
			if resp, _ = get(t, ts.URL+url); resp.StatusCode != 200 {
				t.Errorf("settling pass %s = %d, want 200 by the second request", url, resp.StatusCode)
			}
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
	// A failed run is never retried: no key ran more than twice (its
	// failed first run, then its clean one), and the server ran the
	// driver exactly as often as the stub saw.
	stub.mu.Lock()
	total := 0
	for key, n := range stub.runs {
		total += n
		if n > 2 {
			t.Errorf("key %s ran %d times, want at most 2", key, n)
		}
	}
	stub.mu.Unlock()
	if m := s.Snapshot(); m.DriverRuns != uint64(total) {
		t.Errorf("driver_runs = %d, stub saw %d runs", m.DriverRuns, total)
	}

	// And the pool still completes fresh work: a key the load never
	// touched fails its first run and computes cleanly on its second.
	fresh := ts.URL + "/v1/artefacts/table6?seed=9"
	if resp, body := get(t, fresh); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, firstRunMarker) {
		t.Errorf("fresh post-chaos first run = %d %q, want the stub's first-run 500", resp.StatusCode, body)
	}
	if resp, body := get(t, fresh); resp.StatusCode != 200 || !strings.HasPrefix(body, "table6") || !strings.HasSuffix(body, " seed=9\n") {
		t.Errorf("fresh post-chaos second run = %d %q, want 200 with the clean stub body", resp.StatusCode, body)
	}
}
