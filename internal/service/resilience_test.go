package service

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/experiments"
)

// TestRetriesExhaustedThenKeyRecovers: the server's retry budget is
// zero — a driver run is deterministic, so a failed run is reported
// once as a 500 after exactly one driver run. The failure is not
// cached, so the key stays live: the next request runs it afresh and
// succeeds once the fault clears.
func TestRetriesExhaustedThenKeyRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	runner := func(e experiments.PlanEntry) (string, error) {
		if failing.Load() {
			return "", fmt.Errorf("still down")
		}
		return "back up\n", nil
	}
	s, ts := newTestServer(t, Options{Parallel: 1, Runner: runner})
	resp, body := get(t, ts.URL+"/v1/artefacts/table2")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed run = %d %q, want 500", resp.StatusCode, body)
	}
	if m := s.Snapshot(); m.DriverRuns != 1 {
		t.Errorf("driver_runs = %d, want 1 (a failed run is not retried)", m.DriverRuns)
	}
	failing.Store(false)
	resp2, body2 := get(t, ts.URL+"/v1/artefacts/table2")
	if resp2.StatusCode != 200 || body2 != "back up\n" || resp2.Header.Get(api.HeaderCache) != "miss" {
		t.Fatalf("recovered request = %d %q X-Cache=%q, want a fresh 200 miss",
			resp2.StatusCode, body2, resp2.Header.Get(api.HeaderCache))
	}
	if m := s.Snapshot(); m.DriverRuns != 2 {
		t.Errorf("driver_runs = %d, want 2", m.DriverRuns)
	}
}

// TestPanickingRunnerIsolated: a panicking driver costs the request a
// 500 — nothing more. No worker dies, no key wedges, active returns to
// zero, and the same artefact succeeds once the panic stops.
func TestPanickingRunnerIsolated(t *testing.T) {
	var panicking atomic.Bool
	panicking.Store(true)
	runner := func(e experiments.PlanEntry) (string, error) {
		if panicking.Load() {
			panic("kaboom")
		}
		return "calm\n", nil
	}
	s, ts := newTestServer(t, Options{Parallel: 1, Runner: runner})
	resp, body := get(t, ts.URL+"/v1/artefacts/table2")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "kaboom") {
		t.Fatalf("panicking run = %d %q, want 500 carrying the panic value", resp.StatusCode, body)
	}
	m := s.Snapshot()
	if m.RunnerPanics != 1 {
		t.Errorf("runner_panics = %d, want 1", m.RunnerPanics)
	}
	if m.Pool.Panics != 0 {
		t.Errorf("pool absorbed %d panics; the runner boundary should have converted them first", m.Pool.Panics)
	}
	if m.Pool.Active != 0 {
		t.Errorf("active = %d after panic, want 0", m.Pool.Active)
	}
	panicking.Store(false)
	resp2, body2 := get(t, ts.URL+"/v1/artefacts/table2")
	if resp2.StatusCode != 200 || body2 != "calm\n" {
		t.Fatalf("post-panic request = %d %q — key wedged or worker lost", resp2.StatusCode, body2)
	}
}

// TestDrainingPoolSetsRetryAfter: once Close has drained the pool, a
// request for an uncached artefact cannot be computed — it answers 503
// unavailable with the same flat Retry-After the shedding path sends.
func TestDrainingPoolSetsRetryAfter(t *testing.T) {
	var calls atomic.Uint64
	s, ts := newTestServer(t, Options{Parallel: 1, Runner: countingRunner(&calls)})
	s.Close()
	resp, body := get(t, ts.URL+"/v1/artefacts/table2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("after Close = %d %q, want 503", resp.StatusCode, body)
	}
	if e, ok := api.DecodeError([]byte(body)); !ok || e.Code != api.CodeUnavailable {
		t.Errorf("body = %q, want unavailable error envelope", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	if calls.Load() != 0 {
		t.Errorf("driver ran %d times on a closed pool", calls.Load())
	}
}

// TestLoadSheddingCapsInflight: beyond MaxInflight, requests are shed
// with 503 + Retry-After instead of queueing; /healthz stays exempt.
func TestLoadSheddingCapsInflight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	runner := func(e experiments.PlanEntry) (string, error) {
		started <- struct{}{}
		<-release
		return "slow\n", nil
	}
	s, ts := newTestServer(t, Options{Parallel: 1, MaxInflight: 1, Runner: runner, Timeout: 10 * time.Second})

	first := make(chan int, 1)
	go func() {
		resp, _ := get(t, ts.URL+"/v1/artefacts/table2")
		first <- resp.StatusCode
	}()
	<-started // the one allowed request now occupies the cap

	resp, body := get(t, ts.URL+"/v1/artefacts/table3")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "overloaded") {
		t.Fatalf("over-cap request = %d %q, want 503 overloaded", resp.StatusCode, body)
	}
	if e, ok := api.DecodeError([]byte(body)); !ok || e.Code != api.CodeOverloaded {
		t.Fatalf("shed body = %q, want overloaded error envelope", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz shed under load: %d", resp.StatusCode)
	}
	if m := s.Snapshot(); m.Requests.Shed < 1 {
		t.Error("shed counter not incremented")
	}

	close(release)
	if code := <-first; code != 200 {
		t.Errorf("in-cap request = %d, want 200", code)
	}
}

// TestAccessLogFormat: the middleware emits one structured line per
// request with method, path, artefact, status, cache disposition and
// latency.
func TestAccessLogFormat(t *testing.T) {
	var buf bytes.Buffer
	var calls atomic.Uint64
	_, ts := newTestServer(t, Options{
		Parallel:  1,
		Runner:    countingRunner(&calls),
		AccessLog: log.New(&buf, "", 0),
	})
	get(t, ts.URL+"/v1/artefacts/table2?samples=30")
	get(t, ts.URL+"/v1/artefacts/table2?samples=30")
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/v1/artefacts/table9") // 404

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d log lines, want 4:\n%s", len(lines), buf.String())
	}
	for want, line := range map[int]string{
		0: "method=GET path=/v1/artefacts/table2 artefact=table2 status=200 cache=miss",
		1: "method=GET path=/v1/artefacts/table2 artefact=table2 status=200 cache=hit",
		2: "method=GET path=/healthz artefact=- status=200 cache=-",
		3: "method=GET path=/v1/artefacts/table9 artefact=table9 status=404 cache=-",
	} {
		if !strings.HasPrefix(lines[want], line) {
			t.Errorf("log line %d = %q, want prefix %q", want, lines[want], line)
		}
		if !strings.Contains(lines[want], " dur=") || !strings.Contains(lines[want], " bytes=") {
			t.Errorf("log line %d missing dur=/bytes=: %q", want, lines[want])
		}
	}
}

// TestBatchEntriesGetIndividualDeadlines is the batch-timeout
// regression test: Timeout is a per-entry budget, not a bound on the
// whole batch. Four 150ms entries on one worker (600ms total) must all
// complete under a 400ms Timeout; the old shared deadline 504ed the
// tail of the stream.
func TestBatchEntriesGetIndividualDeadlines(t *testing.T) {
	runner := func(e experiments.PlanEntry) (string, error) {
		time.Sleep(150 * time.Millisecond)
		return e.JobName() + "\n", nil
	}
	_, ts := newTestServer(t, Options{Parallel: 1, Runner: runner, Timeout: 400 * time.Millisecond})
	req := `{"platforms":["haswell"],"artefacts":["table2","table3","figure3","table5"],"samples":30}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch = %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "tpserved:") {
		t.Fatalf("batch hit the shared-deadline bug:\n%s", body)
	}
	for _, name := range []string{"table2", "table3", "figure3", "table5"} {
		if !strings.Contains(string(body), name+"/Haswell") {
			t.Errorf("entry %s missing from stream:\n%s", name, body)
		}
	}
}

// TestOptionDefaultsPinned pins the documented defaults and the
// regression that New must build every component from the defaulted
// options — the cache used to be built from the raw CacheEntries and
// only matched because NewCache re-implemented the default.
func TestOptionDefaultsPinned(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	m := s.Snapshot()
	if want := runtime.NumCPU(); m.Pool.Workers != want {
		t.Errorf("default workers = %d, want NumCPU %d", m.Pool.Workers, want)
	}
	if m.Pool.QueueCap != 4*m.Pool.Workers {
		t.Errorf("default queue = %d, want 4*workers %d", m.Pool.QueueCap, 4*m.Pool.Workers)
	}
	if m.Cache.Capacity != 1024 {
		t.Errorf("default cache capacity = %d, want 1024", m.Cache.Capacity)
	}
	o := s.opts
	if o.Timeout != 5*time.Minute || o.MaxInflight != 0 || o.SessionHeartbeat != 15*time.Second || o.Runner == nil {
		t.Errorf("defaulted opts = %+v", o)
	}

	// A non-default value reaches the component it configures.
	s2 := New(Options{Parallel: 1, CacheEntries: 7})
	defer s2.Close()
	if got := s2.Snapshot().Cache.Capacity; got != 7 {
		t.Errorf("CacheEntries 7 built a cache of capacity %d", got)
	}
}
