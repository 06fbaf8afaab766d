package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
)

// countingRunner returns a fast deterministic fake driver that counts
// invocations per cache-relevant identity.
func countingRunner(calls *atomic.Uint64) func(experiments.PlanEntry) (string, error) {
	return func(e experiments.PlanEntry) (string, error) {
		calls.Add(1)
		return fmt.Sprintf("artefact %s seed=%d samples=%d\n",
			e.JobName(), e.Config.Seed, e.Config.Samples), nil
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, string(body)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestArtefactListing(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	resp, body := get(t, ts.URL+"/v1/artefacts")
	if resp.StatusCode != 200 {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	var list []struct {
		Name      string   `json:"name"`
		Platforms []string `json:"platforms"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("bad listing JSON: %v", err)
	}
	byName := map[string][]string{}
	for _, a := range list {
		byName[a.Name] = a.Platforms
	}
	if len(list) != len(experiments.Registry()) {
		t.Errorf("listing has %d entries, registry %d", len(list), len(experiments.Registry()))
	}
	if got := byName["figure4"]; len(got) != 1 || got[0] != "haswell" {
		t.Errorf("figure4 platforms = %v, want [haswell] (x86-only)", got)
	}
	if got := byName["table3"]; len(got) != 2 {
		t.Errorf("table3 platforms = %v, want both", got)
	}
}

// TestCacheHitServesIdenticalBytes is the core caching guarantee: a
// repeated request re-serves the exact bytes without re-running the
// driver, and /metricz records the hit.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	var calls atomic.Uint64
	s, ts := newTestServer(t, Options{Parallel: 2, Runner: countingRunner(&calls)})
	url := ts.URL + "/v1/artefacts/table2?platform=haswell&samples=30"

	resp1, body1 := get(t, url)
	resp2, body2 := get(t, url)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d/%d", resp1.StatusCode, resp2.StatusCode)
	}
	if body1 != body2 {
		t.Fatalf("cached body differs:\n%q\n%q", body1, body2)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("driver ran %d times, want 1", got)
	}
	if h1, h2 := resp1.Header.Get(api.HeaderCache), resp2.Header.Get(api.HeaderCache); h1 != "miss" || h2 != "hit" {
		t.Errorf("X-Cache = %q then %q, want miss then hit", h1, h2)
	}
	m := s.Snapshot()
	if m.Cache.Hits != 1 || m.DriverRuns != 1 {
		t.Errorf("metrics: hits=%d runs=%d, want 1/1", m.Cache.Hits, m.DriverRuns)
	}
	// The /metricz endpoint serves the same counters.
	_, mz := get(t, ts.URL+"/metricz")
	var doc Metrics
	if err := json.Unmarshal([]byte(mz), &doc); err != nil {
		t.Fatalf("bad /metricz JSON: %v", err)
	}
	if doc.Cache.Hits != 1 {
		t.Errorf("/metricz hits = %d, want 1", doc.Cache.Hits)
	}
}

// TestGlobalArtefactSharesOneEntry: table1 is platform-independent, so
// any config hashes to the same cache entry.
func TestGlobalArtefactSharesOneEntry(t *testing.T) {
	var calls atomic.Uint64
	_, ts := newTestServer(t, Options{Parallel: 1, Runner: countingRunner(&calls)})
	get(t, ts.URL+"/v1/artefacts/table1?samples=30")
	resp, _ := get(t, ts.URL+"/v1/artefacts/table1?samples=99&platform=sabre")
	if resp.Header.Get(api.HeaderCache) != "hit" {
		t.Errorf("table1 with different config missed the cache")
	}
	if calls.Load() != 1 {
		t.Errorf("table1 ran %d times, want 1", calls.Load())
	}
}

// TestSeedZeroIsDistinct is the service-level regression test for the
// seed-0 bug: seed=0 must be a different run (and cache entry) than the
// default seed 42.
func TestSeedZeroIsDistinct(t *testing.T) {
	var calls atomic.Uint64
	_, ts := newTestServer(t, Options{Parallel: 1, Runner: countingRunner(&calls)})
	_, bodyZero := get(t, ts.URL+"/v1/artefacts/table2?seed=0")
	_, bodyDefault := get(t, ts.URL+"/v1/artefacts/table2")
	if calls.Load() != 2 {
		t.Fatalf("driver ran %d times, want 2 (seed 0 and seed 42 are distinct runs)", calls.Load())
	}
	if !strings.Contains(bodyZero, "seed=0") || !strings.Contains(bodyDefault, "seed=42") {
		t.Errorf("seeds not honoured: %q / %q", bodyZero, bodyDefault)
	}
}

// TestSingleflightCollapsesConcurrentRequests: N concurrent identical
// requests cost exactly one driver run.
func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	var calls atomic.Uint64
	release := make(chan struct{})
	runner := func(e experiments.PlanEntry) (string, error) {
		calls.Add(1)
		<-release
		return "slow body\n", nil
	}
	s, ts := newTestServer(t, Options{Parallel: 4, Runner: runner})
	url := ts.URL + "/v1/artefacts/figure3?samples=30"

	const n = 8
	var wg sync.WaitGroup
	bodies := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := get(t, url)
			bodies[i], codes[i] = body, resp.StatusCode
		}()
	}
	// Let the requests pile up on the in-flight run, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("driver ran %d times for %d concurrent identical requests, want 1", got, n)
	}
	for i := 0; i < n; i++ {
		if codes[i] != 200 || bodies[i] != "slow body\n" {
			t.Errorf("request %d: %d %q", i, codes[i], bodies[i])
		}
	}
	// Exact accounting: each request costs exactly one counted cache
	// lookup — the re-check inside the flight is an uncounted Peek. The
	// old Get-based re-check double-counted a miss (or minted a spurious
	// hit) for the flight leader, skewing the /metricz hit rate.
	m := s.Snapshot()
	if got := m.Cache.Hits + m.Cache.Misses; got != n {
		t.Errorf("hits+misses = %d+%d = %d, want exactly %d (one counted lookup per request)",
			m.Cache.Hits, m.Cache.Misses, got, n)
	}
	if m.Cache.Misses < 1 {
		t.Errorf("misses = %d, want at least the flight leader's miss", m.Cache.Misses)
	}
	if m.DriverRuns != 1 {
		t.Errorf("driver_runs = %d, want 1", m.DriverRuns)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	cases := []struct {
		url      string
		want     int
		code     api.ErrorCode
		artefact string
	}{
		{"/v1/artefacts/table9", http.StatusNotFound, api.CodeNotFound, "table9"},
		{"/v1/artefacts/table2?platform=riscv", http.StatusBadRequest, api.CodeBadRequest, "table2"},
		{"/v1/artefacts/figure4?platform=sabre", http.StatusBadRequest, api.CodeBadRequest, "figure4"}, // x86-only
		{"/v1/artefacts/table2?samples=abc", http.StatusBadRequest, api.CodeBadRequest, "table2"},
		{"/v1/artefacts/table2?seed=abc", http.StatusBadRequest, api.CodeBadRequest, "table2"},
		{"/v1/artefacts/table2?metrics=maybe", http.StatusBadRequest, api.CodeBadRequest, "table2"},
		{"/v1/artefacts?platform=riscv", http.StatusBadRequest, api.CodeBadRequest, ""},
		{"/v1/artefacts?paper=nope", http.StatusBadRequest, api.CodeBadRequest, ""},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+c.url)
		if resp.StatusCode != c.want {
			t.Errorf("%s = %d, want %d", c.url, resp.StatusCode, c.want)
		}
		// Every v1 error is the JSON envelope, never http.Error text.
		e, ok := api.DecodeError([]byte(body))
		if !ok {
			t.Errorf("%s body = %q, want error envelope", c.url, body)
			continue
		}
		if e.Code != c.code || e.Artefact != c.artefact || e.Message == "" {
			t.Errorf("%s envelope = %+v, want code=%s artefact=%q", c.url, e, c.code, c.artefact)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", c.url, ct)
		}
	}

	for body, want := range map[string]int{
		`{"artefacts":["nope"]}`:       http.StatusBadRequest,
		`{}`:                           http.StatusBadRequest, // selects nothing
		`{"platforms":["riscv"]}`:      http.StatusBadRequest,
		`{"bogus_field":1,"all":true}`: http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s = %d, want %d", body, resp.StatusCode, want)
		}
		if e, ok := api.DecodeError(raw); !ok || e.Code != api.CodeBadRequest {
			t.Errorf("POST %s body = %q, want bad_request envelope", body, raw)
		}
	}
}

// TestQueueFullBackpressure: with one worker and a one-slot queue, a
// third distinct request is rejected with 429 instead of piling up.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	runner := func(e experiments.PlanEntry) (string, error) {
		started <- struct{}{}
		<-release
		return "done\n", nil
	}
	s, ts := newTestServer(t, Options{Parallel: 1, Queue: 1, Runner: runner, Timeout: 10 * time.Second})

	resps := make(chan int, 2)
	for _, name := range []string{"table2", "table3"} {
		go func() {
			resp, _ := get(t, ts.URL+"/v1/artefacts/"+name)
			resps <- resp.StatusCode
		}()
	}
	// Wait until the worker holds one run and the queue holds the other.
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Pool.Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, _ := get(t, ts.URL+"/v1/artefacts/table5")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full request = %d, want 429", resp.StatusCode)
	}
	if s.Snapshot().Pool.Rejected < 1 {
		t.Error("rejected counter not incremented")
	}

	// Release the two held runs and collect their (successful)
	// responses before the server shuts down.
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-resps; code != 200 {
			t.Errorf("held request = %d, want 200", code)
		}
	}
}

// TestRunsStreamInPlanOrder: POST /v1/runs emits every selected
// artefact in plan order, whatever order the runs complete in.
func TestRunsStreamInPlanOrder(t *testing.T) {
	var calls atomic.Uint64
	_, ts := newTestServer(t, Options{Parallel: 4, Runner: countingRunner(&calls)})
	req := `{"platforms":["haswell"],"artefacts":["table2","figure3","table3"],"samples":30}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("runs = %d: %s", resp.StatusCode, body)
	}
	want := "artefact table2/Haswell (x86) seed=42 samples=30\n" +
		"artefact figure3/Haswell (x86) seed=42 samples=30\n" +
		"artefact table3/Haswell (x86) seed=42 samples=30\n"
	if string(body) != want {
		t.Errorf("stream:\n%q\nwant:\n%q", body, want)
	}
	// The batch populated the cache: re-requesting one artefact over GET
	// is a hit, not a re-run.
	resp2, _ := get(t, ts.URL+"/v1/artefacts/figure3?samples=30")
	if resp2.Header.Get(api.HeaderCache) != "hit" {
		t.Errorf("batch results not shared with GET cache")
	}
	if calls.Load() != 3 {
		t.Errorf("driver ran %d times, want 3", calls.Load())
	}
}

// TestRunRequestBounds: a run body over 1 MiB and a platform named
// twice are 400 bad_request envelopes, and neither reaches a driver.
func TestRunRequestBounds(t *testing.T) {
	var calls atomic.Uint64
	s, ts := newTestServer(t, Options{Parallel: 1, Runner: countingRunner(&calls)})
	valid := `{"platforms":["haswell"],"artefacts":["table2"],"samples":30}`
	many := `{"artefacts":["table2"` + strings.Repeat(`,"table2"`, maxBodyBytes/9) + `]}`
	cases := map[string]string{
		"object over 1 MiB":            many,
		"valid object padded to 1 MiB": valid + strings.Repeat(" ", maxBodyBytes),
		"two values":                   valid + valid,
		"platform twice":               `{"platforms":["haswell","haswell"],"artefacts":["table2"]}`,
		"platform twice by alias":      `{"platforms":["sabre","arm"],"artefacts":["table2"]}`,
	}
	for name, body := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/runs", body)
		if e, ok := api.DecodeError(raw); resp.StatusCode != http.StatusBadRequest || !ok || e.Code != api.CodeBadRequest {
			t.Errorf("%s: %d %.200s, want 400 bad_request", name, resp.StatusCode, raw)
		}
	}
	if calls.Load() != 0 || s.Snapshot().DriverRuns != 0 {
		t.Fatalf("rejected bodies ran the driver %d times", calls.Load())
	}
	// The same request within the bounds runs.
	if resp, raw := postJSON(t, ts.URL+"/v1/runs", valid+"\n"); resp.StatusCode != 200 || calls.Load() != 1 {
		t.Fatalf("valid run = %d %s after %d runs", resp.StatusCode, raw, calls.Load())
	}
}

// FuzzRunRequest sends arbitrary bytes through the /v1/runs decode,
// validation and expansion path against a counting stub driver. It
// must never panic, a rejected body runs nothing, and an accepted body
// expands to at most the entries of the full plan for both platforms:
// the stub prints one line per entry, cache hits included.
func FuzzRunRequest(f *testing.F) {
	full := len(experiments.Expand(experiments.PlanSpec{
		Platforms: []hw.Platform{hw.Haswell(), hw.Sabre()},
		Artefacts: experiments.ArtefactNames(),
		Check:     true,
	}))
	for _, seed := range []string{
		`{"platforms":["haswell"],"artefacts":["table2","table3"],"samples":30}`,
		`{"all":true,"ablations":true,"extensions":true,"check":true}`,
		`{"platforms":["haswell","x86"],"table":2}`,
		`{"figure":3,"seed":0,"metrics":true}`,
		`{"artefacts":["table2","table2","table2"],"platforms":["sabre","haswell"]}`,
		`{"platforms":[]}`,
		`{"nope":1}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var calls atomic.Uint64
		s := New(Options{Parallel: 2, Runner: countingRunner(&calls)})
		defer s.Close()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusOK:
			if n := strings.Count(rec.Body.String(), "\n"); n == 0 || n > full {
				t.Fatalf("accepted body expanded to %d entries, want 1..%d: %q", n, full, body)
			}
		case http.StatusBadRequest:
			if calls.Load() != 0 {
				t.Fatalf("rejected body ran %d drivers: %q", calls.Load(), body)
			}
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// TestConcurrentMixedLoad hammers cache, singleflight and pool from
// many goroutines — the -race meat of the package.
func TestConcurrentMixedLoad(t *testing.T) {
	var calls atomic.Uint64
	runner := func(e experiments.PlanEntry) (string, error) {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return fmt.Sprintf("%s seed=%d\n", e.JobName(), e.Config.Seed), nil
	}
	s, ts := newTestServer(t, Options{Parallel: 4, Queue: 64, Runner: runner})

	urls := []string{
		"/v1/artefacts/table2?seed=1",
		"/v1/artefacts/table2?seed=2",
		"/v1/artefacts/table3?seed=1",
		"/v1/artefacts/figure3?seed=1",
		"/metricz",
	}
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := get(t, ts.URL+urls[i%len(urls)])
			if resp.StatusCode != 200 && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("%s = %d", urls[i%len(urls)], resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got > 4 {
		t.Errorf("4 distinct configs caused %d driver runs", got)
	}
	m := s.Snapshot()
	if m.Cache.Entries > 4 {
		t.Errorf("cache holds %d entries for 4 configs", m.Cache.Entries)
	}
}

// TestByteIdentityWithTpbench runs a real (small) driver through both
// paths: the served body must be byte-identical to what tpbench's
// RunJobs writes for the same plan, and the repeat is a cache hit with
// the same bytes.
func TestByteIdentityWithTpbench(t *testing.T) {
	if testing.Short() {
		t.Skip("real driver run")
	}
	spec := experiments.PlanSpec{
		Platforms: []hw.Platform{hw.Haswell()},
		Base:      experiments.Config{Samples: 20, Seed: 7},
		Artefacts: []string{"table2"},
	}
	var sb strings.Builder
	if err := experiments.RunJobs(experiments.Plan(spec), 1, &sb); err != nil {
		t.Fatal(err)
	}
	want := sb.String()

	_, ts := newTestServer(t, Options{Parallel: 2}) // real drivers
	url := ts.URL + "/v1/artefacts/table2?platform=haswell&samples=20&seed=7"
	resp, body := get(t, url)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if body != want {
		t.Fatalf("served body differs from tpbench output:\nserved: %q\ntpbench: %q", body, want)
	}
	resp2, body2 := get(t, url)
	if resp2.Header.Get(api.HeaderCache) != "hit" || body2 != want {
		t.Fatalf("repeat not an identical cache hit (X-Cache=%q)", resp2.Header.Get(api.HeaderCache))
	}
}

// TestMetriczSnapshotSection: /metricz exposes the process-wide
// snapshot layer and its bounded run memo under "snapshot", so an
// operator can see captures, forks and memo hits, and that the memo
// stays within its bound.
func TestMetriczSnapshotSection(t *testing.T) {
	_, ts := newTestServer(t, Options{Parallel: 1})
	snapshotSection := func() map[string]any {
		_, mz := get(t, ts.URL+"/metricz")
		var doc map[string]any
		if err := json.Unmarshal([]byte(mz), &doc); err != nil {
			t.Fatalf("bad /metricz JSON: %v", err)
		}
		sec, ok := doc["snapshot"].(map[string]any)
		if !ok {
			t.Fatalf("/metricz has no snapshot section:\n%s", mz)
		}
		return sec
	}
	before := snapshotSection()
	// Table 2 is seed-free, so the second seed's run is a memo hit.
	for _, seed := range []string{"1", "2"} {
		if resp, body := get(t, ts.URL+"/v1/artefacts/table2?platform=haswell&samples=30&seed="+seed); resp.StatusCode != 200 {
			t.Fatalf("table2 seed %s: %d %s", seed, resp.StatusCode, body)
		}
	}
	after := snapshotSection()
	for _, f := range []string{"captures", "forks", "fallbacks", "memo_hits"} {
		if _, ok := after[f].(float64); !ok {
			t.Errorf("snapshot.%s missing: %v", f, after)
		}
	}
	if after["memo_hits"].(float64) <= before["memo_hits"].(float64) {
		t.Errorf("memo_hits did not rise across a repeated seed-free run: %v -> %v", before["memo_hits"], after["memo_hits"])
	}
	m, ok := after["memo"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot.memo missing: %v", after)
	}
	if m["capacity"] != float64(1024) || m["entries"].(float64) < 1 || m["entries"].(float64) > 1024 {
		t.Errorf("snapshot.memo = %v, want 1..1024 entries of capacity 1024", m)
	}
	if _, ok := m["evictions"].(float64); !ok {
		t.Errorf("snapshot.memo.evictions missing: %v", m)
	}
}
