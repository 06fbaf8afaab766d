// Package session is the server side of the interactive attack API: a
// registry of live attack sessions, each owning a booted
// (snapshot-forked) machine, a covert-channel sender/receiver pair
// prepared by internal/channel, and a bounded live event feed tapped
// off a per-session trace.Sink. Sessions are created from a Spec
// (channel/scenario/platform/seed, with the same defaults semantics as
// channel.Spec and the batch API), advanced step by step under caller
// control, and observed live over subscriber channels that the service
// layer turns into SSE streams.
//
// Determinism is the correctness anchor: a session stepped to
// completion — in any step increments — produces byte-identical
// samples and an identical MI verdict to the equivalent one-shot
// tpattack/channel run for the same spec and seed, because
// channel.Interactive replays exactly the one-shot loop's simulation
// chunks and the verdict is computed by the same mi.Analyze call with
// the same seed.
//
// Resource bounds are part of the contract: the registry caps live
// sessions (MaxSessions), reaps sessions idle past IdleTTL (a session
// is active when created or stepped; an open stream alone does not
// keep it alive), caps subscribers per session, and feeds each
// subscriber through a bounded buffer with drop accounting — a stalled
// SSE consumer loses events, never blocks the simulation.
package session

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"timeprotection/internal/memo"
)

// Errors the service layer maps onto v1 error codes.
var (
	// ErrBadSpec wraps every spec-validation failure (bad_request).
	ErrBadSpec = errors.New("session: bad spec")
	// ErrLimit rejects creation at the MaxSessions cap (session_limit).
	ErrLimit = errors.New("session: at max-sessions capacity")
	// ErrClosed rejects operations on a deleted or reaped session
	// (session_closed).
	ErrClosed = errors.New("session: closed")
	// ErrSubscriberLimit rejects streams beyond the per-session cap
	// (subscriber_limit).
	ErrSubscriberLimit = errors.New("session: subscriber limit reached")
	// ErrRegistryClosed rejects creation during shutdown (unavailable).
	ErrRegistryClosed = errors.New("session: registry closed")
	// ErrStaleSeq rejects a step whose sequence number was already
	// superseded (seq_conflict) — see Session.StepSeq.
	ErrStaleSeq = errors.New("session: stale step sequence")
)

// Options configures a Registry. The zero value selects serving
// defaults.
type Options struct {
	// MaxSessions caps concurrently live sessions (default 64).
	MaxSessions int
	// IdleTTL is how long a session survives without being created or
	// stepped before the reaper closes it (default 5m). Subscribing to
	// the stream does not count as activity — an abandoned session with
	// a dangling stream still dies, which is what bounds machine count.
	IdleTTL time.Duration
	// ReapInterval is the reaper sweep period (default IdleTTL/4,
	// clamped to [50ms, 30s]).
	ReapInterval time.Duration
	// EventBuffer is each subscriber's buffered-channel capacity
	// (default 256). A full buffer drops the event for that subscriber
	// and counts it — publishing never blocks.
	EventBuffer int
	// MaxSubscribers caps stream subscribers per session (default 32).
	MaxSubscribers int
	// MIWindow emits a live MI update on the stream every MIWindow
	// collected samples (default 25; 0 disables the updates).
	MIWindow int
	// Clock is the time source (default time.Now; tests inject).
	Clock func() time.Time

	// Journal, when non-nil, makes sessions durable: each session's
	// Spec and position (chunks run, steps taken, last sequenced step)
	// are journalled through it (synchronously, per step, in a doc
	// whose size does not grow with the step count) and restored lazily
	// on first access after a restart — a fresh fork advanced to the
	// journaled position is the session byte-for-byte. nil = sessions
	// die with the process (the pre-journal behaviour).
	Journal Journal
	// Replicate, when non-nil, pushes every journal write (and
	// tombstone) to the cluster's ring successors, so a session
	// survives not just restarts but the permanent death of its owner.
	// Called synchronously after the local journal write.
	Replicate func(key string, body []byte)
	// IDPrefix namespaces minted session IDs ("<prefix>-<epoch>-<n>",
	// default "s"). Clustered daemons set a per-shard prefix
	// (IDPrefixForAddr) so IDs are unique across the ring.
	IDPrefix string
}

func (o Options) withDefaults() Options {
	if o.MaxSessions < 1 {
		o.MaxSessions = 64
	}
	if o.IdleTTL <= 0 {
		o.IdleTTL = 5 * time.Minute
	}
	if o.ReapInterval <= 0 {
		o.ReapInterval = o.IdleTTL / 4
		if o.ReapInterval < 50*time.Millisecond {
			o.ReapInterval = 50 * time.Millisecond
		}
		if o.ReapInterval > 30*time.Second {
			o.ReapInterval = 30 * time.Second
		}
	}
	if o.EventBuffer < 1 {
		o.EventBuffer = 256
	}
	if o.MaxSubscribers < 1 {
		o.MaxSubscribers = 32
	}
	if o.MIWindow < 0 {
		o.MIWindow = 0
	} else if o.MIWindow == 0 {
		o.MIWindow = 25
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.IDPrefix == "" {
		o.IDPrefix = "s"
	}
	return o
}

// Registry owns the live session set, its limits and the idle reaper.
type Registry struct {
	opts Options

	mu        sync.Mutex
	sessions  map[string]*Session
	restoring memo.Group[string, *Session] // per-ID restore singleflight
	epoch     string                       // this incarnation's ID component (base-36 start time)
	seq       uint64                       // ID mint counter
	ord       uint64                       // insertion ordinal (List order)
	shut      bool

	stop chan struct{}
	wg   sync.WaitGroup

	created       atomic.Uint64
	restored      atomic.Uint64 // journal restores (each also counts in created)
	closed        atomic.Uint64 // deleted by clients or shut down
	reaped        atomic.Uint64 // closed by the idle reaper
	rejected      atomic.Uint64 // creations refused at the cap
	steps         atomic.Uint64
	samples       atomic.Uint64
	published     atomic.Uint64
	dropped       atomic.Uint64
	subsGauge     atomic.Int64
	journalErrors atomic.Uint64
}

// NewRegistry builds a registry and starts its idle reaper. Call Close
// to stop the reaper and end every live session.
func NewRegistry(opts Options) *Registry {
	r := &Registry{
		opts:     opts.withDefaults(),
		sessions: map[string]*Session{},
		stop:     make(chan struct{}),
	}
	// The epoch is the start time on the wall clock, not Options.Clock:
	// a restarted shard must read a later time than any earlier
	// incarnation did, even under a test's frozen clock.
	r.epoch = strconv.FormatInt(time.Now().UnixNano(), 36)
	r.wg.Add(1)
	go r.reapLoop()
	return r
}

// Create validates the spec, boots (snapshot-forks) the session's
// machine, and registers the session under a freshly minted ID. The
// MaxSessions cap is checked before the boot (fast rejection under
// load) and again at insertion (the authoritative check).
func (r *Registry) Create(spec Spec) (*Session, error) {
	return r.CreateWithID("", spec)
}

// CreateWithID is Create with a caller-chosen ID — the clustered create
// path mints the ID on the receiving shard (NewID) and forwards it to
// the ring owner, so the ID the client sees routes back to the same
// owner forever. An empty ID mints one locally.
func (r *Registry) CreateWithID(id string, spec Spec) (*Session, error) {
	if id != "" {
		if err := validID(id); err != nil {
			return nil, err
		}
	}
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := r.admit(); err != nil {
		return nil, err
	}
	s, err := newSession(r, spec)
	if err != nil {
		return nil, err
	}
	if err := r.insert(s, id); err != nil {
		return nil, err
	}
	r.created.Add(1)
	s.mu.Lock()
	s.journalLocked()
	s.mu.Unlock()
	return s, nil
}

// NewID mints an unused session ID ("<prefix>-<epoch>-<n>"), skipping
// IDs that are live or still journaled — reusing one would overwrite a
// restorable session's journal. The epoch keeps it apart from every ID
// an earlier incarnation of this shard minted, including IDs of
// sessions that live on another shard.
func (r *Registry) NewID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newIDLocked()
}

func (r *Registry) newIDLocked() string {
	for {
		r.seq++
		id := fmt.Sprintf("%s-%s-%d", r.opts.IDPrefix, r.epoch, r.seq)
		if _, live := r.sessions[id]; live {
			continue
		}
		if r.journalLive(id) {
			continue
		}
		return id
	}
}

// admit fast-fails creation at the cap or during shutdown, before the
// expensive machine boot; insert re-checks authoritatively.
func (r *Registry) admit() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shut {
		return ErrRegistryClosed
	}
	if len(r.sessions) >= r.opts.MaxSessions {
		r.rejected.Add(1)
		return ErrLimit
	}
	return nil
}

func (r *Registry) insert(s *Session, id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shut {
		return ErrRegistryClosed
	}
	if len(r.sessions) >= r.opts.MaxSessions {
		r.rejected.Add(1)
		return ErrLimit
	}
	if id == "" {
		id = r.newIDLocked()
	} else if _, taken := r.sessions[id]; taken {
		return fmt.Errorf("%w: session id %q already live", ErrBadSpec, id)
	}
	r.ord++
	s.ID = id
	s.seq = r.ord
	r.sessions[id] = s
	return nil
}

// Get returns a live session by ID. With a Journal configured, a miss
// falls through to the restore path: journaled sessions from a previous
// run (or a dead ring peer, via replication) come back transparently on
// first access.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	if ok {
		return s, true
	}
	return r.restore(id)
}

// List returns the live sessions in creation order.
func (r *Registry) List() []*Session {
	r.mu.Lock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Delete removes and closes a session, tombstoning its journal so it
// stays dead across restarts and failovers; false when the ID is
// unknown. A journaled-but-never-restored session (post-restart, before
// first access) deletes cleanly too: the tombstone is the deletion.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if ok {
		delete(r.sessions, id)
	}
	r.mu.Unlock()
	if !ok {
		if validID(id) == nil && r.journalLive(id) {
			r.tombstone(id, CloseDeleted)
			return true
		}
		return false
	}
	if s.close(CloseDeleted) {
		r.closed.Add(1)
	}
	r.tombstone(id, CloseDeleted)
	return true
}

// Close stops the reaper and ends every live session (drain path).
func (r *Registry) Close() {
	r.mu.Lock()
	if r.shut {
		r.mu.Unlock()
		return
	}
	r.shut = true
	victims := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		delete(r.sessions, id)
		victims = append(victims, s)
	}
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
	for _, s := range victims {
		if s.close(CloseShutdown) {
			r.closed.Add(1)
		}
	}
}

func (r *Registry) reapLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.reapIdle()
		}
	}
}

// reapIdle closes every session idle past IdleTTL. Reaping mid-stream
// is deliberate: subscribers get a closed event and their Done channel
// closes, but a stream alone never keeps the machine alive.
func (r *Registry) reapIdle() {
	now := r.opts.Clock()
	var victims []*Session
	r.mu.Lock()
	for id, s := range r.sessions {
		if now.Sub(s.LastActive()) >= r.opts.IdleTTL {
			delete(r.sessions, id)
			victims = append(victims, s)
		}
	}
	r.mu.Unlock()
	for _, s := range victims {
		if s.close(CloseIdle) {
			r.reaped.Add(1)
		}
		r.tombstone(s.ID, CloseIdle)
	}
}

// ReapNow runs one reaper sweep immediately (tests drive reaping
// deterministically through an injected Clock instead of waiting out
// real TTLs).
func (r *Registry) ReapNow() { r.reapIdle() }

// Stats is the /metricz sessions section. The lifecycle counters
// balance: Created == Active + Closed + Reaped in any settled snapshot.
// Restored attributes how many of Created came through the journal
// restore path (each restore counts in both), so the restore path is
// visible without breaking the balance.
type Stats struct {
	Active          int    `json:"active"`
	Created         uint64 `json:"created"`
	Restored        uint64 `json:"restored"`
	Closed          uint64 `json:"closed"`
	Reaped          uint64 `json:"reaped"`
	Rejected        uint64 `json:"rejected"`
	Steps           uint64 `json:"steps"`
	Samples         uint64 `json:"samples"`
	EventsPublished uint64 `json:"events_published"`
	EventsDropped   uint64 `json:"events_dropped"`
	Subscribers     int64  `json:"subscribers"`
	JournalErrors   uint64 `json:"journal_errors"`
	MaxSessions     int    `json:"max_sessions"`
}

// Stats returns the registry's counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	active := len(r.sessions)
	r.mu.Unlock()
	return Stats{
		Active:          active,
		Created:         r.created.Load(),
		Restored:        r.restored.Load(),
		Closed:          r.closed.Load(),
		Reaped:          r.reaped.Load(),
		Rejected:        r.rejected.Load(),
		Steps:           r.steps.Load(),
		Samples:         r.samples.Load(),
		EventsPublished: r.published.Load(),
		EventsDropped:   r.dropped.Load(),
		Subscribers:     r.subsGauge.Load(),
		JournalErrors:   r.journalErrors.Load(),
		MaxSessions:     r.opts.MaxSessions,
	}
}
