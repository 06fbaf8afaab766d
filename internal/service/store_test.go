package service

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/experiments"
	"timeprotection/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestRestartServesFromDisk is the durable-store acceptance path: a
// result computed before a restart is served from disk by the next
// process generation (X-Cache: disk) without re-running the driver,
// and promoted into memory so the request after that is a plain hit.
func TestRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Uint64
	url := "/v1/artefacts/table2?platform=haswell&samples=30&seed=5"

	st1 := openStore(t, dir)
	s1 := New(Options{Parallel: 2, Runner: countingRunner(&calls), Store: st1})
	ts1 := newServerOn(t, s1)
	resp, body1 := get(t, ts1.URL+url)
	if resp.StatusCode != 200 || resp.Header.Get(api.HeaderCache) != "miss" {
		t.Fatalf("first boot: %d X-Cache=%q", resp.StatusCode, resp.Header.Get(api.HeaderCache))
	}
	// SIGTERM: listener closes, the pool drain waits for the store writes.
	ts1.Close()
	s1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Parallel: 2, Runner: countingRunner(&calls), Store: st2})
	ts2 := newServerOn(t, s2)
	resp2, body2 := get(t, ts2.URL+url)
	if resp2.StatusCode != 200 || resp2.Header.Get(api.HeaderCache) != "disk" {
		t.Fatalf("after restart: %d X-Cache=%q, want 200 disk", resp2.StatusCode, resp2.Header.Get(api.HeaderCache))
	}
	if body2 != body1 {
		t.Fatalf("disk-served body differs:\n%q\n%q", body2, body1)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("driver ran %d times across restart, want 1", got)
	}
	resp3, _ := get(t, ts2.URL+url)
	if resp3.Header.Get(api.HeaderCache) != "hit" {
		t.Errorf("promotion failed: third request X-Cache=%q, want hit", resp3.Header.Get(api.HeaderCache))
	}
	m := s2.Snapshot()
	if m.Store == nil || m.Store.Hits != 1 {
		t.Errorf("store metrics = %+v, want 1 disk hit", m.Store)
	}
	if m.Artefacts.Disk != 1 || m.Artefacts.Hits != 1 {
		t.Errorf("dispositions = %+v, want disk=1 hit=1", m.Artefacts)
	}
}

// TestCorruptStoreEntryRecomputed: a flipped byte in the store file is
// detected on read, quarantined, counted on /metricz, and transparently
// recomputed — the client sees a clean miss, never bad bytes.
func TestCorruptStoreEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Uint64
	url := "/v1/artefacts/table3?platform=haswell&samples=30&seed=9"

	st1 := openStore(t, dir)
	s1 := New(Options{Parallel: 2, Runner: countingRunner(&calls), Store: st1})
	ts1 := newServerOn(t, s1)
	_, want := get(t, ts1.URL+url)
	ts1.Close()
	s1.Close()
	st1.Close()

	// Flip a byte in the single stored object.
	objs, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("objects dir: %v, %v", objs, err)
	}
	path := filepath.Join(dir, "objects", objs[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Parallel: 2, Runner: countingRunner(&calls), Store: st2})
	ts2 := newServerOn(t, s2)
	resp, body := get(t, ts2.URL+url)
	if resp.StatusCode != 200 || resp.Header.Get(api.HeaderCache) != "miss" {
		t.Fatalf("corrupt entry: %d X-Cache=%q, want recomputing 200 miss", resp.StatusCode, resp.Header.Get(api.HeaderCache))
	}
	if body != want {
		t.Fatalf("recomputed body differs from original:\n%q\n%q", body, want)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("driver ran %d times, want 2 (original + recompute)", got)
	}
	m := s2.Snapshot()
	if m.Store == nil || m.Store.Corrupt != 1 || m.Store.Quarantined != 1 {
		t.Errorf("store metrics = %+v, want corrupt=1 quarantined=1", m.Store)
	}
	// The recompute's write-behind healed the slot: next generation
	// serves from disk again.
	ts2.Close()
	s2.Close()
	st2.Close()
	st3 := openStore(t, dir)
	defer st3.Close()
	s3 := New(Options{Parallel: 2, Runner: countingRunner(&calls), Store: st3})
	ts3 := newServerOn(t, s3)
	resp3, _ := get(t, ts3.URL+url)
	if resp3.Header.Get(api.HeaderCache) != "disk" {
		t.Errorf("healed slot: X-Cache=%q, want disk", resp3.Header.Get(api.HeaderCache))
	}
}

// TestDrainFlushesAbandonedFill is the satellite shutdown-race fix: a
// client timeout abandons the waiter while the driver still runs on its
// worker; SIGTERM (Server.Close) must wait for both the background fill
// and its write-behind store flush, so the computed result survives to
// the next generation instead of being lost with the process.
func TestDrainFlushesAbandonedFill(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	var calls atomic.Uint64
	slow := func(e experiments.PlanEntry) (string, error) {
		calls.Add(1)
		<-release
		return "slow but precious\n", nil
	}
	st1 := openStore(t, dir)
	s1 := New(Options{Parallel: 1, Runner: slow, Store: st1, Timeout: 20 * time.Millisecond})
	ts1 := newServerOn(t, s1)

	url := "/v1/artefacts/table5?platform=haswell&samples=30"
	resp, _ := get(t, ts1.URL+url)
	if resp.StatusCode != 504 {
		t.Fatalf("abandoned request = %d, want 504", resp.StatusCode)
	}
	// SIGTERM now: the run is still blocked on its worker. Release it
	// just after the drain starts.
	ts1.Close()
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	s1.Close() // must wait for the fill AND its store flush
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Parallel: 1, Runner: slow, Store: st2})
	ts2 := newServerOn(t, s2)
	resp2, body := get(t, ts2.URL+url)
	if resp2.StatusCode != 200 || resp2.Header.Get(api.HeaderCache) != "disk" || body != "slow but precious\n" {
		t.Fatalf("restart lost the abandoned fill: %d X-Cache=%q %q",
			resp2.StatusCode, resp2.Header.Get(api.HeaderCache), body)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("driver ran %d times, want 1 — the drained fill should have been kept", got)
	}
}

// TestDispositionSnapshotConsistent hammers artefact requests while
// concurrently snapshotting /metricz and asserts the ledger invariant
// hits+disk+misses+errors == requests holds in EVERY snapshot, not just
// at quiescence — the point of capturing the struct under one mutex.
func TestDispositionSnapshotConsistent(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	var calls atomic.Uint64
	s, ts := newTestServer(t, Options{Parallel: 4, Queue: 64, Runner: countingRunner(&calls), Store: st})

	stop := make(chan struct{})
	var snapErrs atomic.Uint64
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := s.Snapshot().Artefacts
			if a.Hits+a.Disk+a.Misses+a.Errors != a.Requests {
				snapErrs.Add(1)
			}
		}
	}()

	var wg sync.WaitGroup
	total := uint64(0)
	var totalMu sync.Mutex
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := uint64(0)
			for i := 0; i < 30; i++ {
				url := fmt.Sprintf("/v1/artefacts/table2?seed=%d", (g*3+i)%6)
				resp, _ := get(t, ts.URL+url)
				if resp.StatusCode == 200 {
					n++
				}
			}
			totalMu.Lock()
			total += n
			totalMu.Unlock()
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	if snapErrs.Load() != 0 {
		t.Errorf("%d snapshots violated hits+disk+misses+errors == requests", snapErrs.Load())
	}
	a := s.Snapshot().Artefacts
	if a.Requests != total || a.Errors != 0 {
		t.Errorf("final ledger %+v, want %d error-free requests", a, total)
	}
	if a.Hits+a.Disk+a.Misses != a.Requests {
		t.Errorf("final ledger does not balance: %+v", a)
	}
}

// newServerOn wires a Server to a test listener. Unlike newTestServer
// it does not register Server.Close — these tests close and restart
// the generations by hand (httptest.Server.Close is idempotent, so the
// cleanup is a harmless safety net).
func newServerOn(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}
