package fault

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// NetRates are per-request injection probabilities in [0, 1]. Drop and
// Latency are independent draws from the same per-destination stream.
type NetRates struct {
	// Drop fails the request at the transport before any bytes leave:
	// the peer never sees it, the caller gets a connection-refused-style
	// error — exactly what a dead host or a dropped SYN looks like.
	Drop float64
	// Latency delays the request by Delay before delegating.
	Latency float64
}

// NetConfig configures a Net injector. The zero value injects nothing
// (partitions can still be installed explicitly).
type NetConfig struct {
	// Seed selects the deterministic decision stream. Two injectors
	// with the same Seed, source and rates make identical per-(dst,
	// attempt) decisions.
	Seed int64
	// Rates apply to every destination.
	Rates NetRates
	// Delay is the latency added when a latency fault fires
	// (default 5ms).
	Delay time.Duration
}

// NetStats counts what a Net has injected.
type NetStats struct {
	Requests    uint64 `json:"requests"`
	Drops       uint64 `json:"drops"`
	Delays      uint64 `json:"delays"`
	Partitioned uint64 `json:"partitioned"` // requests blocked by an installed partition
}

// Net injects deterministic network faults as an http.RoundTripper —
// install it as the Transport of cluster.Options.Client and every peer
// call passes through it. Decisions are drawn from a splitmix64 stream
// keyed by (seed, src, dst, per-destination attempt number) — the same
// discipline as the disk injector — so a chaos run replays
// exactly from its seed regardless of goroutine interleaving per
// sequential caller: the nth request from src to dst always meets the
// same fate.
//
// Partitions are explicit, not probabilistic: Partition(dst) makes
// every request from this injector's source to dst fail until Heal.
// They are one-way — dst's own injector is untouched, so traffic can
// flow dst→src while src→dst is black-holed, the classic asymmetric
// partition.
type Net struct {
	src  string
	cfg  NetConfig
	base http.RoundTripper

	mu       sync.Mutex
	attempts map[string]uint64 // per-destination request counter
	blocked  map[string]bool   // one-way partitions: src -> dst
	stats    NetStats
}

// NewNet builds a network injector for requests originating at src
// (the injecting node's own address — it keys the decision stream, so
// each node in a cluster draws an independent schedule from the shared
// seed). base is the clean transport; nil selects
// http.DefaultTransport.
func NewNet(src string, base http.RoundTripper, cfg NetConfig) *Net {
	if base == nil {
		base = http.DefaultTransport
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 5 * time.Millisecond
	}
	return &Net{
		src:      src,
		cfg:      cfg,
		base:     base,
		attempts: make(map[string]uint64),
		blocked:  make(map[string]bool),
	}
}

// Partition black-holes all future requests from this source to dst
// (one-way) until Heal or HealAll.
func (n *Net) Partition(dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[dst] = true
}

// Heal removes a one-way partition to dst.
func (n *Net) Heal(dst string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, dst)
}

// HealAll removes every installed partition.
func (n *Net) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[string]bool)
}

// RoundTrip injects the decided faults for this destination's next
// attempt, then delegates to the base transport. Injected failures
// wrap ErrInjected and identify (src, dst, attempt) so a failure in a
// chaos log can be replayed from its seed.
func (n *Net) RoundTrip(req *http.Request) (*http.Response, error) {
	dst := req.URL.Host
	n.mu.Lock()
	a := n.attempts[dst]
	n.attempts[dst]++
	n.stats.Requests++
	blocked := n.blocked[dst]
	if blocked {
		n.stats.Partitioned++
	}
	n.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("%w: partition %s -> %s (attempt %d)", ErrInjected, n.src, dst, a)
	}

	base := mix64(uint64(n.cfg.Seed)) ^ fnv64(n.src+"->"+dst)
	drop := unit(mix64(base+2*a*gamma)) < n.cfg.Rates.Drop
	delay := unit(mix64(base+(2*a+1)*gamma)) < n.cfg.Rates.Latency
	if delay {
		n.mu.Lock()
		n.stats.Delays++
		n.mu.Unlock()
		select {
		case <-time.After(n.cfg.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if drop {
		n.mu.Lock()
		n.stats.Drops++
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: drop %s -> %s (attempt %d)", ErrInjected, n.src, dst, a)
	}
	return n.base.RoundTrip(req)
}

// Stats snapshots the injection counters.
func (n *Net) Stats() NetStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}
