package service

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"timeprotection/internal/cluster"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/session"
	"timeprotection/internal/store"
)

// singleMemberCluster builds a cluster whose ring contains only this
// shard: Route always answers self, so nothing ever forwards, but the
// server is a clustered deployment — its internal endpoints are
// registered and peer traffic earns the shedding exemption.
func singleMemberCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Options{Self: "127.0.0.1:1"})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestSheddingExemptsPeerTraffic: on a clustered deployment, load
// shedding counts each request at its entry shard only. A forwarded
// request already consumed an in-flight slot on the shard that
// forwarded it; shedding it again at the owner would double-penalise
// cluster traffic and turn one overloaded shard into cluster-wide 503s.
func TestSheddingExemptsPeerTraffic(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	runner := func(e experiments.PlanEntry) (string, error) {
		if e.Artefact.Name == "table3" {
			entered <- struct{}{}
			<-release
		}
		return "body " + e.CanonicalKey() + "\n", nil
	}
	s, ts := newTestServer(t, Options{
		Parallel: 2, MaxInflight: 1, Runner: runner,
		Cluster: singleMemberCluster(t),
	})

	// Warm table2 so the exempted requests below are cache hits that
	// need no pool slot.
	if resp, _ := get(t, ts.URL+"/v1/artefacts/table2?samples=30"); resp.StatusCode != 200 {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}

	// Occupy the single in-flight slot with a request blocked in its
	// driver.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/artefacts/table3?samples=30")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	// A plain client request beyond the cap is shed...
	resp, _ := get(t, ts.URL+"/v1/artefacts/table2?samples=30")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("plain request at cap: status %d, want 503", resp.StatusCode)
	}

	// ...but the same request arriving as a peer forward is not: the
	// originating shard already counted this hop.
	req, err := http.NewRequest("GET", ts.URL+"/v1/artefacts/table2?samples=30", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardHeader, "1")
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("forwarded request: %v", err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != 200 {
		t.Errorf("forwarded request at cap: status %d, want 200 (exempt from shedding)", fresp.StatusCode)
	}

	// The internal cluster endpoints bypass the cap too.
	entry := experiments.PlanEntry{
		Artefact: mustArtefact(t, "table2"),
		Config:   experiments.Config{Platform: hw.Haswell(), Samples: 30}.Canonical(),
	}
	eresp, _ := get(t, ts.URL+cluster.EntryPath+"?"+cluster.EntryQuery(entry).Encode())
	if eresp.StatusCode != 200 {
		t.Errorf("cluster entry endpoint at cap: status %d, want 200", eresp.StatusCode)
	}

	close(release)
	<-done

	m := s.Snapshot()
	if m.Requests.Shed != 1 {
		t.Errorf("shed %d requests, want exactly the 1 plain one", m.Requests.Shed)
	}
}

func mustArtefact(t *testing.T, name string) experiments.Artefact {
	t.Helper()
	a, ok := experiments.LookupArtefact(name)
	if !ok {
		t.Fatalf("artefact %q not in registry", name)
	}
	return a
}

// TestEntryQueryRoundTrip: cluster.EntryQuery and the internal entry
// handler are two halves of one wire format. For every entry shape the
// planner can produce — platform-bound, global, check, explicit seed 0,
// metrics on, sabre — the receiving shard must reconstruct an entry
// with the identical CanonicalKey, or forwarder and owner would cache
// the same bytes under different addresses.
func TestEntryQueryRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	runner := func(e experiments.PlanEntry) (string, error) {
		mu.Lock()
		ran = append(ran, e.CanonicalKey())
		mu.Unlock()
		return "body " + e.CanonicalKey() + "\n", nil
	}
	_, ts := newTestServer(t, Options{
		Parallel: 2, Runner: runner,
		Cluster: singleMemberCluster(t),
	})

	entries := []experiments.PlanEntry{
		{Artefact: mustArtefact(t, "table2"),
			Config: experiments.Config{Platform: hw.Haswell(), Samples: 30, Seed: 0}.Canonical()},
		{Artefact: mustArtefact(t, "table8"),
			Config: experiments.Config{Platform: hw.Sabre(), Samples: 20, Seed: 5, SplashBlocks: 3, Table8Slices: 2}.Canonical()},
		{Artefact: mustArtefact(t, "table1"),
			Config: experiments.Config{}.Canonical()},
		{Check: true,
			Config: experiments.Config{Platform: hw.Haswell(), Samples: 30}.Canonical()},
		{Artefact: mustArtefact(t, "figure3"),
			Config: experiments.Config{Platform: hw.Haswell(), Samples: 25, Metrics: true}.Canonical()},
	}
	for _, e := range entries {
		url := ts.URL + cluster.EntryPath + "?" + cluster.EntryQuery(e).Encode()
		resp, body := get(t, url)
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d: %s", e.JobName(), resp.StatusCode, body)
			continue
		}
		if want := "body " + e.CanonicalKey() + "\n"; body != want {
			t.Errorf("%s: served %q, want %q — wire format does not round-trip the canonical key",
				e.JobName(), body, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != len(entries) {
		t.Errorf("runner saw %d entries, want %d", len(ran), len(entries))
	}
}

// TestReplicaAcceptsOnlyReplicatedKeyShapes: a replica PUT lands in the
// store only under the two key shapes replication sends, an artefact
// content key and a session journal key. Any other key — a prefixed
// content hash such as snap-<hex> among them — is a 400 and stores
// nothing.
func TestReplicaAcceptsOnlyReplicatedKeyShapes(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Options{
		Parallel: 1, Store: st,
		Runner:  func(e experiments.PlanEntry) (string, error) { return "", nil },
		Cluster: singleMemberCluster(t),
	})
	put := func(key string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+cluster.ReplicaPathPrefix+key, strings.NewReader("replica\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("replica PUT %q: %v", key, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	content := store.Key("table2|haswell")
	rejected := []string{
		strings.ToUpper(content),
		content[:63],
		content + "0",
		"sess-",
		"sess-.hidden",
		"journal",
	}
	for _, prefix := range []string{"snap", "art", "kern"} {
		rejected = append(rejected, prefix+"-"+content[:56])
	}
	for _, key := range rejected {
		if code := put(key); code != http.StatusBadRequest {
			t.Errorf("replica PUT %q: status %d, want 400", key, code)
		}
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("rejected keys left %d store entries", n)
	}
	for _, key := range []string{content, session.Key("s-127-0-0-1-9101-k3x-1")} {
		if code := put(key); code != http.StatusNoContent {
			t.Errorf("replica PUT %q: status %d, want 204", key, code)
		}
		if b, ok := st.Get(key); !ok || string(b) != "replica\n" {
			t.Errorf("replica PUT %q stored %q, %v", key, b, ok)
		}
	}
}

// TestNoClusterSurfaceWithoutCluster: a daemon that never opted into
// -peers exposes no cluster surface at all. The internal endpoints
// answer 404 — no client can PUT bytes into its store under a
// well-formed key or read through the peer path — and the forward
// header earns no shedding exemption, so it cannot be spoofed to
// bypass the in-flight cap.
func TestNoClusterSurfaceWithoutCluster(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	runner := func(e experiments.PlanEntry) (string, error) {
		if e.Artefact.Name == "table3" {
			entered <- struct{}{}
			<-release
		}
		return "body " + e.CanonicalKey() + "\n", nil
	}
	s, ts := newTestServer(t, Options{Parallel: 2, MaxInflight: 1, Runner: runner})

	entry := experiments.PlanEntry{
		Artefact: mustArtefact(t, "table2"),
		Config:   experiments.Config{Platform: hw.Haswell(), Samples: 30, Seed: 42}.Canonical(),
	}

	// The read-through endpoint is not registered.
	eresp, _ := get(t, ts.URL+cluster.EntryPath+"?"+cluster.EntryQuery(entry).Encode())
	if eresp.StatusCode != http.StatusNotFound {
		t.Errorf("cluster entry endpoint without a cluster: status %d, want 404", eresp.StatusCode)
	}

	// Neither is the replication endpoint: a poisoned body for a valid
	// key must not land anywhere.
	preq, err := http.NewRequest(http.MethodPut,
		ts.URL+cluster.ReplicaPathPrefix+entry.CacheKey(), strings.NewReader("poison\n"))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatalf("replica PUT: %v", err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Errorf("replica endpoint without a cluster: status %d, want 404", presp.StatusCode)
	}
	if resp, body := get(t, ts.URL+"/v1/artefacts/table2?samples=30"); resp.StatusCode != 200 ||
		body != "body "+entry.CanonicalKey()+"\n" {
		t.Errorf("artefact after poison attempt: status %d body %q — the PUT must not have landed", resp.StatusCode, body)
	}

	// Occupy the single in-flight slot, then spoof the forward header:
	// without a cluster it confers no shedding exemption.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/artefacts/table3?samples=30")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/artefacts/table2?samples=30", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardHeader, "1")
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("spoofed-forward request: %v", err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("spoofed forward at cap: status %d, want 503 (no exemption without a cluster)", fresp.StatusCode)
	}
	close(release)
	<-done

	if shed := s.Snapshot().Requests.Shed; shed != 1 {
		t.Errorf("shed %d requests, want exactly the spoofed one", shed)
	}
}
