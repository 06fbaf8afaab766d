package fault

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCircuitOpen is returned by Breaker.Allow while a key's circuit is
// open: the guarded operation keeps failing and callers should
// fast-fail instead of burning resources on it. tpserved translates it
// into 503 Service Unavailable for artefacts; the cluster layer treats
// an open peer circuit as "peer down" and routes around it.
var ErrCircuitOpen = errors.New("circuit open: retry later")

// BreakerStats is a snapshot of a Breaker's counters (/metricz).
type BreakerStats struct {
	Threshold int    `json:"threshold"` // 0 = disabled
	Open      int    `json:"open"`      // keys currently open
	Tripped   uint64 `json:"tripped"`   // times any key opened
	FastFails uint64 `json:"fast_fails"`
}

// Breaker is a per-key circuit breaker — the failure policy PR 4
// introduced for artefacts, shared since the cluster layer applies the
// same policy per peer. Each key counts consecutive failures; at
// threshold the key opens and Allow fast-fails with ErrCircuitOpen
// instead of admitting more doomed work. After cooldown the next
// caller is let through as a half-open probe: success closes the
// circuit, failure re-opens it for another cooldown. A threshold of 0
// disables the breaker entirely (Allow always admits).
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu      sync.Mutex
	entries map[string]*breakerEntry

	tripped   atomic.Uint64
	fastFails atomic.Uint64
}

type breakerEntry struct {
	fails     int       // consecutive failures
	openUntil time.Time // zero = closed
}

// NewBreaker builds a breaker that opens a key after threshold
// consecutive failures and fast-fails it for cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		entries:   make(map[string]*breakerEntry),
	}
}

// Allow reports whether work for this key may proceed. Past the
// cooldown an open circuit admits callers again (half-open): their
// outcome decides whether it closes or re-opens.
func (b *Breaker) Allow(key string) error {
	if b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.openUntil.IsZero() || !b.now().Before(e.openUntil) {
		return nil
	}
	b.fastFails.Add(1)
	return ErrCircuitOpen
}

// Success closes the key's circuit and resets its failure count.
func (b *Breaker) Success(key string) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.entries[key]; e != nil {
		e.fails = 0
		e.openUntil = time.Time{}
	}
}

// Failure records one failure; at threshold the circuit opens for
// cooldown. A failing half-open probe lands here too (fails is already
// at threshold) and re-opens for a fresh cooldown.
func (b *Breaker) Failure(key string) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		e = &breakerEntry{}
		b.entries[key] = e
	}
	e.fails++
	if e.fails >= b.threshold {
		e.openUntil = b.now().Add(b.cooldown)
		b.tripped.Add(1)
	}
}

// Open reports whether the key's circuit is currently open (without
// counting a fast-fail). The cluster's routing uses it to health-gate
// peers.
func (b *Breaker) Open(key string) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	return e != nil && !e.openUntil.IsZero() && b.now().Before(e.openUntil)
}

// OpenFor reports how much cooldown remains on the key's open circuit
// (zero when closed or past cooldown) — the service derives Retry-After
// hints from it, so fast-failed clients come back when the half-open
// probe is actually possible rather than guessing.
func (b *Breaker) OpenFor(key string) time.Duration {
	if b.threshold <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.openUntil.IsZero() {
		return 0
	}
	if d := e.openUntil.Sub(b.now()); d > 0 {
		return d
	}
	return 0
}

// Stats snapshots the counters.
func (b *Breaker) Stats() BreakerStats {
	st := BreakerStats{
		Threshold: b.threshold,
		Tripped:   b.tripped.Load(),
		FastFails: b.fastFails.Load(),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.entries {
		if !e.openUntil.IsZero() && b.now().Before(e.openUntil) {
			st.Open++
		}
	}
	return st
}
