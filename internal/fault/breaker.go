package fault

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerStats is a snapshot of a Breaker's counters (/metricz).
type BreakerStats struct {
	Threshold int    `json:"threshold"` // 0 = disabled
	Open      int    `json:"open"`      // keys currently open
	Tripped   uint64 `json:"tripped"`   // times any key opened
}

// Breaker is a per-key circuit breaker; the cluster layer keys it by
// peer. Each key counts consecutive failures; at threshold the key
// opens and Open reports it for cooldown, so callers route around it
// instead of admitting more doomed work. Past the cooldown the key
// reads closed again (half-open): the next success closes it for good,
// the next failure re-opens it for another cooldown. A threshold of 0
// disables the breaker entirely (Open is always false).
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu      sync.Mutex
	entries map[string]*breakerEntry

	tripped atomic.Uint64
}

type breakerEntry struct {
	fails     int       // consecutive failures
	openUntil time.Time // zero = closed
}

// NewBreaker builds a breaker that opens a key after threshold
// consecutive failures and keeps it open for cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		entries:   make(map[string]*breakerEntry),
	}
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
// cooldown. A failing half-open attempt lands here too (fails is
// already at threshold) and re-opens for a fresh cooldown.
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

// Open reports whether the key's circuit is currently open. The
// cluster's routing uses it to health-gate peers.
func (b *Breaker) Open(key string) bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	return e != nil && !e.openUntil.IsZero() && b.now().Before(e.openUntil)
}

// Stats snapshots the counters.
func (b *Breaker) Stats() BreakerStats {
	st := BreakerStats{
		Threshold: b.threshold,
		Tripped:   b.tripped.Load(),
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
