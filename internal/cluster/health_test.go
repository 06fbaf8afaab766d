package cluster

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// roundTrip answers every peer request from a function, so probes run
// without a network.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestPeerHealth walks one peer's health record through its three rules
// on a manual clock: failed hops below the threshold leave it up, the
// threshold marks it down for the cooldown, a failed hop after the
// cooldown marks it down again, a successful hop marks it up and resets
// the count, and a failed probe marks it down at once and past any
// cooldown until a probe succeeds. /metricz's breaker section counts
// hop trips only.
func TestPeerHealth(t *testing.T) {
	probeOK := true
	c, err := New(Options{
		Self:             "a:1",
		Peers:            []string{"a:1", "b:1"},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
		Client: &http.Client{Transport: roundTrip(func(*http.Request) (*http.Response, error) {
			if !probeOK {
				return nil, errors.New("peer unreachable")
			}
			return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("ok\n"))}, nil
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clock := time.Unix(0, 0)
	c.now = func() time.Time { return clock }
	const b = "b:1"
	hop := errors.New("hop failed")

	c.peerFailed(b, hop)
	if !c.alive(b) {
		t.Fatal("down after 1 failed hop with threshold 2")
	}
	c.peerFailed(b, hop)
	if c.alive(b) {
		t.Fatal("up after 2 failed hops with threshold 2")
	}
	if !c.alive("a:1") {
		t.Fatal("self reads down")
	}
	if st := c.Stats().Breaker; st != (BreakerStats{Threshold: 2, Open: 1, Tripped: 1}) {
		t.Fatalf("breaker stats with one peer down = %+v", st)
	}

	clock = clock.Add(999 * time.Millisecond)
	if c.alive(b) {
		t.Fatal("up before the cooldown passed")
	}
	clock = clock.Add(time.Millisecond)
	if !c.alive(b) {
		t.Fatal("still down once the cooldown passed")
	}
	if st := c.Stats().Breaker; st.Open != 0 {
		t.Fatalf("breaker stats count a peer past its cooldown as open: %+v", st)
	}

	// Past the cooldown the count still stands: one failed hop marks the
	// peer down again for a fresh cooldown.
	c.peerFailed(b, hop)
	if c.alive(b) {
		t.Fatal("a failed hop after the cooldown did not mark the peer down")
	}
	clock = clock.Add(500 * time.Millisecond)
	if c.alive(b) {
		t.Fatal("up before the fresh cooldown passed")
	}
	if st := c.Stats().Breaker; st.Tripped != 2 {
		t.Fatalf("tripped = %d after two trips, want 2", st.Tripped)
	}

	// A successful hop marks it up and resets the count: one new failed
	// hop stays below the threshold.
	c.peerUp(b)
	if !c.alive(b) {
		t.Fatal("down after a successful hop")
	}
	c.peerFailed(b, hop)
	if !c.alive(b) {
		t.Fatal("a successful hop did not reset the failed-hop count")
	}

	// A failed probe marks the peer down at once, whatever the
	// threshold, and keeps it down past the cooldown until a probe
	// succeeds. The hop rule's stats do not count it.
	probeOK = false
	c.Probe()
	if c.alive(b) {
		t.Fatal("up after a failed probe")
	}
	clock = clock.Add(time.Hour)
	if c.alive(b) {
		t.Fatal("a failed probe's mark expired without a good probe")
	}
	if st := c.Stats(); st.Breaker.Open != 0 || st.ProbeFails != 1 || st.Peers[0].Alive {
		t.Fatalf("stats after a failed probe = %+v", st)
	}
	probeOK = true
	c.Probe()
	if !c.alive(b) {
		t.Fatal("down after a successful probe")
	}

	// A threshold below 1 means 1: the first failed hop marks the peer
	// down.
	c1, err := New(Options{Self: "a:1", Peers: []string{"b:1"}, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.peerFailed(b, hop)
	if c1.alive(b) {
		t.Fatal("threshold -1: up after a failed hop")
	}
	if st := c1.Stats().Breaker; st.Threshold != 1 {
		t.Fatalf("threshold -1 reads as %d, want 1", st.Threshold)
	}
}
