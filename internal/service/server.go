// Package service implements tpserved: a long-running HTTP/JSON daemon
// that serves the paper's artefacts over the deterministic experiment
// drivers. Because every run is deterministic, responses flow through a
// content-addressed result cache keyed by (artefact, platform,
// canonical Config); concurrent identical requests collapse to one
// driver run via singleflight; actual compute is bounded by a worker
// pool with a bounded queue (429 backpressure) and per-request
// timeouts. Bodies are byte-identical to what cmd/tpbench prints for
// the same config — both sides render through the artefact registry in
// internal/experiments.
//
// The serving path is hardened against arbitrary runner failure: a
// panicking or erroring driver run is converted to an error at the
// runner boundary (with pool-worker and singleflight recovery as
// further lines of defence) and reported once. A driver run is a
// deterministic function of its plan entry, so a failure would repeat
// on every attempt: it is neither retried nor cached, and the next
// request for the key runs it afresh. No fault can leak a goroutine,
// wedge a singleflight key, or shrink the pool.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/cluster"
	"timeprotection/internal/experiments"
	"timeprotection/internal/memo"
	"timeprotection/internal/session"
	"timeprotection/internal/store"
)

// ErrRunnerPanic marks a driver panic that was recovered and converted
// to an error; handlers translate it into 500 like any other runner
// failure, and the panicking key stays retryable. It is the memo
// package's panic sentinel, so a panic caught by the singleflight
// matches it too.
var ErrRunnerPanic = memo.ErrPanic

// Options configures a Server. The zero value selects sane defaults.
type Options struct {
	// Parallel is the worker-pool size (default: NumCPU).
	Parallel int
	// Queue is the pending-compute bound (default: 4*Parallel); a full
	// queue rejects interactive requests with 429.
	Queue int
	// CacheEntries bounds the result cache (default 1024).
	CacheEntries int
	// Timeout bounds how long one request waits for its artefact
	// (default 5 minutes). Batch requests apply it per entry, not over
	// the whole batch. The driver run itself is not cancelled — its
	// result still lands in the cache for the retry.
	Timeout time.Duration
	// MaxInflight sheds load with 503 once that many requests are in
	// flight (default 0 = unlimited). /healthz is exempt so liveness
	// probes still answer under overload.
	MaxInflight int
	// AccessLog, when non-nil, receives one structured line per request
	// (method, path, artefact, status, cache disposition, latency).
	AccessLog *log.Logger
	// Store, when non-nil, is the durable tier under the in-memory
	// cache (tpserved -store): the LRU becomes a read-through /
	// write-behind fast tier over it. Memory misses consult the store
	// (X-Cache: disk) before computing, and computed results are
	// flushed to disk in the background — a restart then serves
	// previously computed artefacts without recompute. The caller owns
	// the store's lifecycle; close it after Server.Close so the drain's
	// write-behind flushes land.
	Store *store.Store
	// Cluster, when non-nil, shards the content-addressed key space
	// across peers (tpserved -peers/-self): a request whose key is
	// owned by a healthy peer is forwarded there (peer read-through,
	// X-Cache: forward) instead of computed locally, and every locally
	// computed entry is replicated write-behind to the key's ring
	// successors. A forward that fails degrades to local compute — the
	// drivers are deterministic, so the cluster can never make a
	// request fail that a single daemon would have served. The caller
	// owns the cluster's lifecycle; close it after Server.Close so the
	// drain's replication pushes land.
	Cluster *cluster.Cluster
	// Sessions, when non-nil, exposes the interactive attack-session
	// surface (POST /v1/sessions, step, SSE stream) backed by this
	// registry. Like Cluster, the caller owns its lifecycle: close it
	// after the HTTP listener stops so live streams end before the
	// drain completes. Without it the session routes 404.
	Sessions *session.Registry
	// SessionHeartbeat is the SSE stream's comment-heartbeat period
	// (default 15s) — it keeps idle streams alive through proxies and
	// lets tests prove liveness quickly.
	SessionHeartbeat time.Duration
	// Runner computes one plan entry's output. Nil selects the real
	// drivers (PlanEntry.Output); tests inject counting, blocking,
	// failing or panicking runners.
	Runner func(experiments.PlanEntry) (string, error)
}

func (o Options) withDefaults() Options {
	if o.Parallel < 1 {
		o.Parallel = runtime.NumCPU()
	}
	if o.Queue < 1 {
		o.Queue = 4 * o.Parallel
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 1024
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Minute
	}
	if o.MaxInflight < 0 {
		o.MaxInflight = 0
	}
	if o.SessionHeartbeat <= 0 {
		o.SessionHeartbeat = 15 * time.Second
	}
	if o.Runner == nil {
		o.Runner = func(e experiments.PlanEntry) (string, error) { return e.Output() }
	}
	return o
}

// CacheStats is a snapshot of the result cache's counters for /metricz.
type CacheStats = memo.Stats

// NewCache builds the in-memory result cache, bounded to max entries
// (max <= 0 means 1024) and weighing entries by body length. Runs are
// deterministic, so entries never expire.
func NewCache(max int) *memo.LRU[string, []byte] {
	return memo.NewLRU[string, []byte](max, func(b []byte) int64 { return int64(len(b)) })
}

// ContentKey hashes a canonical request description into the cache's
// address space, which is the durable store's: the two tiers share
// keys, and requests that mean the same run share an entry however they
// were spelled.
func ContentKey(canonical string) string { return store.Key(canonical) }

// Cache-source values result reports and X-Cache carries. The strings
// themselves live in internal/api — the one home of the wire protocol,
// shared with internal/cluster — these are just short local names.
const (
	srcHit     = api.CacheHit     // served from the in-memory cache
	srcDisk    = api.CacheDisk    // served from the durable store
	srcMiss    = api.CacheMiss    // computed by a driver run
	srcForward = api.CacheForward // served by the key's owning shard (peer read-through)
)

// Server owns the cache, singleflight group and worker pool behind the
// HTTP API.
type Server struct {
	opts    Options
	cache   *memo.LRU[string, []byte]
	flights memo.Group[string, []byte]
	pool    *Pool
	mux     *http.ServeMux

	// fills tracks in-flight write-behind store flushes (and nothing
	// else): Close waits on it after draining the pool, so a SIGTERM
	// arriving between a computed result and its disk flush cannot lose
	// the bytes. Background cache fills themselves — driver runs whose
	// waiter timed out — run on pool workers and are drained by
	// pool.Close; this group covers the store writes those fills spawn.
	fills sync.WaitGroup

	// disp is the consistent artefact-request disposition ledger; see
	// dispositions.
	disp dispositions

	requests atomic.Uint64
	errors   atomic.Uint64
	shed     atomic.Uint64
	inflight atomic.Int64
	runs     atomic.Uint64 // actual driver invocations
	panics   atomic.Uint64 // runner panics converted to errors
}

// ArtefactStats is the /metricz view of terminal artefact-request
// dispositions. Because the whole struct is recorded and snapshotted
// under one mutex, Hits+Disk+Misses+Errors == Requests holds exactly in
// every snapshot — chaos tests assert it without flake.
type ArtefactStats struct {
	Requests uint64 `json:"requests"` // completed artefact requests
	Hits     uint64 `json:"hits"`     // served from memory
	Disk     uint64 `json:"disk"`     // served from the durable store
	Misses   uint64 `json:"misses"`   // computed by a driver run
	Errors   uint64 `json:"errors"`   // terminated with an error
	Forwards uint64 `json:"forwards"` // served by the owning shard (peer read-through)
}

// dispositions counts terminal artefact-request outcomes under a single
// mutex. The individual atomics elsewhere in Server are each
// internally consistent but mutually torn when read one by one;
// invariants that span counters need this one-lock ledger.
type dispositions struct {
	mu sync.Mutex
	s  ArtefactStats
}

func (d *dispositions) record(src string, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.s.Requests++
	switch {
	case err != nil:
		d.s.Errors++
	case src == srcHit:
		d.s.Hits++
	case src == srcDisk:
		d.s.Disk++
	case src == srcForward:
		d.s.Forwards++
	default:
		d.s.Misses++
	}
}

func (d *dispositions) snapshot() ArtefactStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s
}

// New assembles a Server. Every component is built from the defaulted
// options — nothing reads the raw opts, so a field's default lives in
// exactly one place (withDefaults). Call Close to drain the worker
// pool.
func New(opts Options) *Server {
	s := &Server{opts: opts.withDefaults()}
	s.cache = NewCache(s.opts.CacheEntries)
	s.pool = NewPool(s.opts.Parallel, s.opts.Queue)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Close drains the worker pool, then waits for write-behind store
// flushes (graceful SIGTERM shutdown: the HTTP listener stops first,
// in-flight computes — including background fills whose client timed
// out — finish on the pool, and every computed result's disk flush
// lands before Close returns). The order matters: flush goroutines are
// spawned from pool tasks, so the pool drain happens-before the last
// fills.Add, making the Wait race-free and complete.
func (s *Server) Close() {
	s.pool.Close()
	s.fills.Wait()
}

// entryKey is the canonical identity of a plan entry — the string the
// content-addressed cache hashes. It lives on PlanEntry so tpbench's
// durable store and this cache share one key space: a store directory
// filled by either front-end answers the other.
func entryKey(e experiments.PlanEntry) string { return e.CanonicalKey() }

// runSafely invokes the runner with panic isolation: a panicking driver
// is converted to an ErrRunnerPanic-wrapped error carrying the panic
// value, reported like any other failure.
func (s *Server) runSafely(e experiments.PlanEntry) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = fmt.Errorf("%w: %v", ErrRunnerPanic, r)
		}
	}()
	return s.opts.Runner(e)
}

// compute is the task the pool executes: run the driver once and, on
// success, fill the cache, the store and the replicas. A failure (a
// failed check's verdict included) is returned to the waiters and
// leaves no trace, so the next request for the key runs it afresh.
func (s *Server) compute(e experiments.PlanEntry, key string) ([]byte, error) {
	s.runs.Add(1)
	out, err := s.runSafely(e)
	body := []byte(out)
	if err == nil {
		s.cache.Put(key, body)
		s.flushBehind(key, body)
		s.replicateBehind(key, body)
	}
	return body, err
}

// flushBehind persists a computed body to the durable store without
// blocking the response (write-behind). The flush is tracked by the
// fills waitgroup so the shutdown drain waits for it; a store write
// error degrades to recompute-after-restart and is counted by the
// store's own stats.
func (s *Server) flushBehind(key string, body []byte) {
	st := s.opts.Store
	if st == nil {
		return
	}
	s.fills.Add(1)
	go func() {
		defer s.fills.Done()
		if err := st.Put(key, body); err != nil && s.opts.AccessLog != nil {
			s.opts.AccessLog.Printf("store flush failed: %v", err)
		}
	}()
}

// replicateBehind pushes a computed body to the key's ring successors
// when clustering is on (write-behind; the cluster tracks the pushes
// and its Close drains them). Whichever shard computed the entry
// replicates it — normally the owner; after a failover, the shard that
// absorbed the key.
func (s *Server) replicateBehind(key string, body []byte) {
	if cl := s.opts.Cluster; cl != nil {
		cl.Replicate(key, body)
	}
}

// result serves one plan entry through cache, store, cluster,
// singleflight and the worker pool, recording the terminal disposition
// in the consistent ledger. block selects blocking queue admission
// (batch runs that were already admitted) over fail-fast 429
// backpressure (interactive requests). forwarded marks a request that
// already took its peer hop (it carried cluster.ForwardHeader): it is
// never forwarded again, which is the loop guard — two shards with
// disagreeing rings degrade to local compute instead of ping-ponging.
// The returned source is srcHit (memory), srcDisk (durable store),
// srcForward (peer read-through; origin carries how the owner served
// it) or srcMiss (computed).
func (s *Server) result(ctx context.Context, e experiments.PlanEntry, block, forwarded bool) (body []byte, src, origin string, err error) {
	body, src, origin, err = s.lookupOrCompute(ctx, e, block, forwarded)
	s.disp.record(src, err)
	return body, src, origin, err
}

func (s *Server) lookupOrCompute(ctx context.Context, e experiments.PlanEntry, block, forwarded bool) ([]byte, string, string, error) {
	key := ContentKey(entryKey(e))
	if body, ok := s.cache.Get(key); ok {
		return body, srcHit, "", nil
	}
	if st := s.opts.Store; st != nil {
		if body, ok := st.Get(key); ok {
			// Read-through promotion: the fast tier absorbs repeats.
			s.cache.Put(key, body)
			return body, srcDisk, "", nil
		}
	}
	if cl := s.opts.Cluster; cl != nil && !forwarded {
		if target := cl.Route(key); target != cl.Self() {
			body, origin, err := cl.FetchEntry(ctx, target, e)
			switch {
			case err == nil:
				// Promote: results are deterministic and immutable, so a
				// forwarded copy is as authoritative as a computed one.
				s.cache.Put(key, body)
				return body, srcForward, origin, nil
			case errors.Is(err, experiments.ErrCheckFailed):
				// The owner reproduced the failing verdict — adopt it
				// instead of re-running the checks here. Like a local
				// check failure it is not cached (only successes are),
				// and it must not fall through to local compute: the
				// verdict is a correct, deterministic result.
				return body, srcForward, origin, err
			case errors.Is(err, cluster.ErrOwnerFailed):
				// The owner's driver run failed. It would fail the same
				// way here, so report it once instead of rerunning it.
				return nil, srcForward, origin, err
			}
			// Failover: the owner was routable but the hop failed (its
			// breaker is now counting); compute locally instead — the
			// cluster never turns a servable request into an error.
			cl.Failover()
		}
	}
	body, err, _ := s.flights.Do(key, func() ([]byte, error) {
		// Re-check under the flight: a previous flight may have filled
		// the cache between our miss and acquiring the flight. Peek, not
		// Get — this request's one counted lookup already happened.
		if body, ok := s.cache.Peek(key); ok {
			return body, nil
		}
		type outcome struct {
			body []byte
			err  error
		}
		done := make(chan outcome, 1)
		task := func() {
			body, err := s.compute(e, key)
			done <- outcome{body, err}
		}
		var submitErr error
		if block {
			submitErr = s.pool.Submit(ctx, task)
		} else {
			submitErr = s.pool.TrySubmit(task)
		}
		if submitErr != nil {
			return nil, submitErr
		}
		select {
		case o := <-done:
			return o.body, o.err
		case <-ctx.Done():
			// The driver keeps running on its worker and will still
			// populate the cache and store (the shutdown drain waits
			// for both); only this waiter gives up.
			return nil, ctx.Err()
		}
	})
	return body, srcMiss, "", err
}

// httpStatusFor maps compute errors onto response codes; codeFor maps
// the same errors onto envelope error codes. Keep the two switches
// aligned.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func codeFor(err error) api.ErrorCode {
	switch {
	case errors.Is(err, ErrQueueFull):
		return api.CodeQueueFull
	case errors.Is(err, ErrPoolClosed):
		return api.CodeUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return api.CodeTimeout
	default:
		return api.CodeInternal
	}
}

// setRetryAfter stamps a Retry-After hint on a draining pool's 503,
// matching the flat second the shedding path already sends. Other
// errors leave the header unset.
func setRetryAfter(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrPoolClosed) {
		w.Header().Set("Retry-After", "1")
	}
}
