// Package memo is the one home of "compute once per key": Group, a keyed
// singleflight that turns a panicking computation into an error for
// every caller; LRU, an entry-bounded least-recently-used map; and
// Memo, the two composed into a bounded memo of successful results.
package memo

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPanic marks a computation that panicked inside Group.Do; the panic
// value follows it in the error text.
var ErrPanic = errors.New("computation panicked")

// Group deduplicates concurrent identical work: while one caller
// computes the value for a key, later callers with the same key block
// and receive the same result instead of computing it again. The zero
// value is ready to use.
type Group[K comparable, V any] struct {
	mu     sync.Mutex
	calls  map[K]*call[V]
	shared atomic.Uint64 // calls answered by another caller's run
	panics atomic.Uint64 // fn panics converted to errors
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn once per key among concurrent callers; shared reports
// whether this caller received another caller's result. Cleanup runs in
// a defer, so a panicking fn leaves the key retryable: the computing
// caller and every waiter receive the same ErrPanic-wrapped error
// instead of a key wedged forever.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		g.shared.Add(1)
		return c.val, c.err, true
	}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			g.panics.Add(1)
			var zero V
			c.val, c.err = zero, fmt.Errorf("%w: %v", ErrPanic, r)
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		v, err = c.val, c.err
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// Shared returns the number of calls answered by another caller's run.
func (g *Group[K, V]) Shared() uint64 { return g.shared.Load() }

// Panics returns the number of fn panics converted to errors.
func (g *Group[K, V]) Panics() uint64 { return g.panics.Load() }

// InFlight returns the number of keys being computed right now.
func (g *Group[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// Stats is a snapshot of an LRU's counters (the /metricz cache shape).
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"`
}

// LRU is a map bounded to a fixed number of entries, evicting the least
// recently used entry beyond the bound. It is safe for concurrent use.
type LRU[K comparable, V any] struct {
	mu        sync.Mutex
	max       int
	size      func(V) int64
	ll        *list.List // of *entry[K, V]; front = most recently used
	items     map[K]*list.Element
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU builds an LRU bounded to max entries (max <= 0 means a
// default of 1024). size, when non-nil, weighs each value for the Bytes
// statistic; it does not affect eviction.
func NewLRU[K comparable, V any](max int, size func(V) int64) *LRU[K, V] {
	if max <= 0 {
		max = 1024
	}
	if size == nil {
		size = func(V) int64 { return 0 }
	}
	return &LRU[K, V]{max: max, size: size, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value for key, counting a hit or a miss and marking
// the entry most recently used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value for key without touching the counters or the
// recency order: a consistency re-check for a lookup already counted.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores a value under key, evicting least recently used entries
// beyond the bound. Storing an existing key is a no-op: values are pure
// functions of their keys, so the stored one is already correct.
func (l *LRU[K, V]) Put(key K, val V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.items[key]; ok {
		return
	}
	l.items[key] = l.ll.PushFront(&entry[K, V]{key, val})
	l.bytes += l.size(val)
	for l.ll.Len() > l.max {
		old := l.ll.Remove(l.ll.Back()).(*entry[K, V])
		delete(l.items, old.key)
		l.bytes -= l.size(old.val)
		l.evictions++
	}
}

// Reset drops every entry; the counters keep counting.
func (l *LRU[K, V]) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = make(map[K]*list.Element)
	l.ll.Init()
	l.bytes = 0
}

// Stats snapshots the counters.
func (l *LRU[K, V]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Hits:      l.hits,
		Misses:    l.misses,
		Entries:   len(l.items),
		Capacity:  l.max,
		Bytes:     l.bytes,
		Evictions: l.evictions,
	}
}

// Memo is an LRU of successful results over a Group for computations in
// flight. A key being computed lives only in the Group, so it is never
// evicted; an error (a panic included) reaches every caller of that
// flight and is never retained.
type Memo[K comparable, V any] struct {
	lru   *LRU[K, V]
	group Group[K, V]
}

// New builds a memo retaining at most capacity results (capacity <= 0
// means a default of 1024). size, when non-nil, weighs each retained
// result for Stats().Bytes, as in NewLRU.
func New[K comparable, V any](capacity int, size func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{lru: NewLRU[K, V](capacity, size)}
}

// Do returns the value for key, computing it with fn when no retained
// or in-flight result exists. hit reports a successful result this
// caller did not compute: a retained one, or another caller's flight.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (v V, hit bool, err error) {
	if v, ok := m.lru.Get(key); ok {
		return v, true, nil
	}
	ran := false
	v, err, _ = m.group.Do(key, func() (V, error) {
		// Re-check under the flight: an earlier flight may have
		// retained the value between the Get above and this flight.
		if v, ok := m.lru.Peek(key); ok {
			return v, nil
		}
		ran = true
		v, err := fn()
		if err == nil {
			m.lru.Put(key, v)
		}
		return v, err
	})
	return v, err == nil && !ran, err
}

// Reset drops every retained result. Flights in progress still finish
// and retain their results.
func (m *Memo[K, V]) Reset() { m.lru.Reset() }

// Stats snapshots the retained-result counters.
func (m *Memo[K, V]) Stats() Stats { return m.lru.Stats() }
