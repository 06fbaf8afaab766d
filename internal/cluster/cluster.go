package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/experiments"
	"timeprotection/internal/fault"
	"timeprotection/internal/memo"
)

// ForwardHeader marks a peer-forwarded request and carries the
// forwarding shard's advertised address. It is the loop guard: a
// request bearing it is already on its second hop and is never
// forwarded again — a shard that receives one computes locally even if
// its own (possibly misconfigured) ring says someone else owns the key.
// It also exempts the request from the receiver's load shedding: the
// originating shard already counted the hop against its in-flight cap,
// and counting it again at both ends would shed cluster traffic twice
// as aggressively as direct traffic.
const ForwardHeader = "X-TP-Forwarded"

// EntryPath is the internal peer read-through endpoint: a GET with the
// plan entry encoded as query parameters (see EntryQuery), answered by
// the receiving shard's local cache/store/compute path.
const EntryPath = "/v1/cluster/entry"

// ReplicaPathPrefix is the internal replication endpoint prefix; the
// owner PUTs computed bodies to ReplicaPathPrefix+key on each replica.
const ReplicaPathPrefix = "/v1/cluster/entries/"

// CheckFailedHeader marks a 422 response from the internal entry
// endpoint as a deterministic failed-check verdict rather than a peer
// fault: the body carries the rendered verdict table, and the
// forwarding shard reconstructs (body, experiments.ErrCheckFailed) —
// the same result a local run yields — instead of recomputing the
// checks and counting the hop as a forward failure.
const CheckFailedHeader = "X-TP-Check-Failed"

// ErrOwnerFailed marks a read-through the owner answered with a 500
// `internal` envelope: its driver run for the entry failed. A driver
// is a deterministic function of its plan entry and fails the same way
// on every shard, so the forwarding shard reports the owner's failure
// as the request's result instead of counting a peer fault and
// rerunning the key locally.
var ErrOwnerFailed = errors.New("owner's driver run failed")

// Options configures a Cluster. Self and Peers are required; everything
// else has serving-friendly defaults.
type Options struct {
	// Self is this shard's advertised host:port — the address peers use
	// to reach it. It is added to Peers if absent.
	Self string
	// Peers is the static membership: every shard's host:port.
	Peers []string
	// Replicas is how many ring successors (beyond the owner) receive a
	// write-behind copy of each computed entry (0 = no replication).
	Replicas int
	// VirtualNodes per member (default DefaultVirtualNodes).
	VirtualNodes int
	// ForwardTimeout bounds one peer read-through request (default 15s).
	// The owner usually answers from cache; a slow compute is better
	// finished locally than waited out remotely.
	ForwardTimeout time.Duration
	// ProbeInterval is the background /healthz sweep period; 0 disables
	// active probing (tests drive Probe explicitly for determinism, and
	// passive breaker gating still works).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// BreakerThreshold opens a peer's circuit after that many
	// consecutive forward/replication failures (default 1: the first
	// failed hop marks the peer down for BreakerCooldown). A negative
	// value disables the per-peer breaker — probes alone gate routing.
	BreakerThreshold int
	// BreakerCooldown is how long an open peer circuit routes around the
	// peer before a half-open attempt (default 3s). A successful probe
	// closes it early.
	BreakerCooldown time.Duration
	// Client issues forwards, probes and replication PUTs (default: a
	// dedicated client with per-host connection reuse).
	Client *http.Client
	// Log, when non-nil, receives one line per peer state change and
	// replication failure.
	Log *log.Logger
}

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 15 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	switch {
	case o.BreakerThreshold == 0:
		o.BreakerThreshold = 1 // the documented default, not "disabled"
	case o.BreakerThreshold < 0:
		o.BreakerThreshold = 0 // fault.Breaker treats 0 as disabled
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 3 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// peerCounters tracks one peer's traffic for /metricz.
type peerCounters struct {
	forwards     atomic.Uint64 // read-through attempts sent to the peer
	forwardHits  atomic.Uint64 // successful read-throughs
	forwardFails atomic.Uint64
	replicated   atomic.Uint64 // replication PUTs acknowledged
	replFails    atomic.Uint64
}

// Cluster is one shard's view of the member set: the ring, per-peer
// health, the forwarding client and the replication write-behind.
type Cluster struct {
	opts Options
	ring *Ring
	self string
	brk  *fault.Breaker

	peers map[string]*peerCounters // every member except self

	mu   sync.Mutex
	down map[string]bool // last probe verdict per peer

	flights memo.Group[string, fetched] // singleflight for the forwarding hop

	stop      chan struct{}
	probeLoop sync.WaitGroup
	repl      sync.WaitGroup // in-flight replication PUTs

	forwards      atomic.Uint64
	forwardShared atomic.Uint64
	proxied       atomic.Uint64 // whole-request proxies (session forwarding)
	proxyFails    atomic.Uint64
	failovers     atomic.Uint64
	received      atomic.Uint64 // inbound forwarded requests served
	replReceived  atomic.Uint64 // inbound replication PUTs accepted
	probes        atomic.Uint64
	probeFails    atomic.Uint64
	replQueued    atomic.Uint64
	replAcked     atomic.Uint64
	replFailed    atomic.Uint64
	replPending   atomic.Int64
}

// New assembles a shard's cluster view. Self must be non-empty; it is
// appended to Peers if the list does not already contain it. Background
// health probing starts only when ProbeInterval > 0; Close stops it and
// drains in-flight replication.
func New(opts Options) (*Cluster, error) {
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	members := append([]string(nil), opts.Peers...)
	found := false
	for _, p := range members {
		if p == opts.Self {
			found = true
			break
		}
	}
	if !found {
		members = append(members, opts.Self)
	}
	opts.Peers = members
	opts = opts.withDefaults()
	c := &Cluster{
		opts:  opts,
		ring:  NewRing(members, opts.VirtualNodes),
		self:  opts.Self,
		brk:   fault.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		peers: make(map[string]*peerCounters),
		down:  make(map[string]bool),
		stop:  make(chan struct{}),
	}
	for _, m := range c.ring.Members() {
		if m != c.self {
			c.peers[m] = &peerCounters{}
		}
	}
	if opts.ProbeInterval > 0 {
		c.probeLoop.Add(1)
		go func() {
			defer c.probeLoop.Done()
			t := time.NewTicker(opts.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.Probe()
				}
			}
		}()
	}
	return c, nil
}

// Close stops the probe loop and waits for in-flight replication PUTs —
// the cluster half of graceful drain (call it after the service's own
// Close so the last computed result's replication lands too).
func (c *Cluster) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.probeLoop.Wait()
	c.repl.Wait()
}

// Self returns this shard's advertised address.
func (c *Cluster) Self() string { return c.self }

// Owner returns the key's ring owner, ignoring health.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// Successors returns up to n distinct members in the key's failover
// order (owner first) — the ring's view, ignoring health.
func (c *Cluster) Successors(key string, n int) []string { return c.ring.Successors(key, n) }

// WaitReplication blocks until every replication PUT scheduled so far
// has been acknowledged or failed. Tests use it to make write-behind
// replication deterministic; Close calls the same drain.
func (c *Cluster) WaitReplication() { c.repl.Wait() }

// alive reports whether a member is currently routable: self always is;
// a peer is alive unless its last probe failed or its circuit is open.
func (c *Cluster) alive(member string) bool {
	if member == c.self {
		return true
	}
	c.mu.Lock()
	probeDown := c.down[member]
	c.mu.Unlock()
	return !probeDown && !c.brk.Open(member)
}

// Route returns the shard that should answer for a key: the first alive
// member in ring-successor order. A down owner fails over to its
// successor (which replication made a warm copy-holder); when every
// candidate is down — or the ring is just this shard — Route returns
// self and the request degrades to local compute.
func (c *Cluster) Route(key string) string {
	cands := c.ring.Successors(key, c.ring.Len())
	for i, m := range cands {
		if c.alive(m) {
			if i > 0 {
				c.failovers.Add(1)
			}
			return m
		}
	}
	return c.self
}

// Failover records a forward that fell back to local compute after its
// target failed (the routing-time failovers are counted by Route).
func (c *Cluster) Failover() { c.failovers.Add(1) }

// NoteForwardReceived counts an inbound peer-forwarded request (the
// service's internal entry handler calls it).
func (c *Cluster) NoteForwardReceived() { c.received.Add(1) }

// NoteReplicaReceived counts an inbound replication PUT accepted.
func (c *Cluster) NoteReplicaReceived() { c.replReceived.Add(1) }

// EntryQuery encodes a plan entry as the query parameters of the
// internal read-through endpoint. The receiving shard's handler parses
// them with the same parseConfig the public artefact endpoint uses and
// reconstructs an entry with the same CanonicalKey, so both shards
// address the same cache/store object. The platform travels as its
// arch alias ("x86"/"arm"): that is what PlatformByName resolves, and
// it round-trips both platforms the HTTP API can name.
func EntryQuery(e experiments.PlanEntry) url.Values {
	c := e.Config.Canonical()
	q := url.Values{}
	if e.Check {
		q.Set("check", "1")
	} else {
		q.Set("artefact", e.Artefact.Name)
	}
	q.Set("platform", c.Platform.Arch)
	q.Set("samples", strconv.Itoa(c.Samples))
	q.Set("blocks", strconv.Itoa(c.SplashBlocks))
	q.Set("seed", strconv.FormatInt(c.Seed, 10))
	q.Set("slices", strconv.Itoa(c.Table8Slices))
	q.Set("metrics", strconv.FormatBool(c.Metrics))
	return q
}

// FetchEntry performs the peer read-through: one GET of the entry from
// target, loop-guarded by ForwardHeader and collapsed with concurrent
// fetches of the same key (singleflight at the forwarding hop — the
// owning shard's own singleflight is the second hop's collapse). origin
// reports how the target served it (its X-Cache: hit, disk or miss). A
// transport error or 5xx counts against the peer's circuit breaker and
// the caller falls back to local compute. A failed security check is
// neither: the target marks it with CheckFailedHeader and FetchEntry
// returns the rendered verdicts alongside experiments.ErrCheckFailed,
// which the caller serves as the (correct, deterministic) result. Nor
// is a failed driver run on the target (a 500 `internal` envelope):
// FetchEntry returns it wrapping ErrOwnerFailed, and the caller reports
// it rather than running the same failing driver again.
// A panic in the hop becomes a memo.ErrPanic error for every waiter.
func (c *Cluster) FetchEntry(ctx context.Context, target string, e experiments.PlanEntry) (body []byte, origin string, err error) {
	f, err, shared := c.flights.Do(e.CacheKey(), func() (fetched, error) {
		body, origin, err := c.fetchOnce(ctx, target, e)
		return fetched{body, origin}, err
	})
	if shared {
		c.forwardShared.Add(1)
	}
	return f.body, f.origin, err
}

// fetched is one forwarding hop's answer: the body and how the target
// served it.
type fetched struct {
	body   []byte
	origin string
}

func (c *Cluster) fetchOnce(ctx context.Context, target string, e experiments.PlanEntry) ([]byte, string, error) {
	pc := c.peers[target]
	if pc == nil {
		return nil, "", fmt.Errorf("cluster: %q is not a peer", target)
	}
	c.forwards.Add(1)
	pc.forwards.Add(1)

	ctx, cancel := context.WithTimeout(ctx, c.opts.ForwardTimeout)
	defer cancel()
	u := "http://" + target + EntryPath + "?" + EntryQuery(e).Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		pc.forwardFails.Add(1)
		c.peerFailed(target, err)
		return nil, "", fmt.Errorf("forward to %s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnprocessableEntity && resp.Header.Get(CheckFailedHeader) == "1" {
		// The owner reproduced a failing security check: a correct,
		// deterministic verdict, not a peer fault. Hand the rendered
		// verdicts back with the sentinel so the caller serves them
		// without recomputing, and settle the breaker as a success —
		// the hop itself worked.
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			pc.forwardFails.Add(1)
			c.peerFailed(target, err)
			return nil, "", fmt.Errorf("forward to %s: %w", target, err)
		}
		c.brk.Success(target)
		pc.forwardHits.Add(1)
		return body, resp.Header.Get(api.HeaderCache), experiments.ErrCheckFailed
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		msg := string(raw)
		env, isEnv := api.DecodeError(raw)
		if isEnv {
			// Peers answer v1 envelopes; surface the message, not JSON.
			msg = env.Message
		}
		if resp.StatusCode == http.StatusInternalServerError && isEnv && env.Code == api.CodeInternal {
			// `internal` is the code a tpserved answers for a failed
			// driver run: a deterministic result, not a peer fault. The hop worked, so settle the
			// breaker as a success and hand the failure back as is.
			c.brk.Success(target)
			pc.forwardHits.Add(1)
			return nil, "", fmt.Errorf("forward to %s: %w: %s", target, ErrOwnerFailed, msg)
		}
		err := fmt.Errorf("forward to %s: %s: %s", target, resp.Status, msg)
		pc.forwardFails.Add(1)
		if resp.StatusCode >= 500 {
			// The peer is reachable but cannot serve (draining, timed
			// out, or not a tpserved at all); our breaker routes
			// around it.
			c.peerFailed(target, err)
		}
		return nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		pc.forwardFails.Add(1)
		c.peerFailed(target, err)
		return nil, "", fmt.Errorf("forward to %s: %w", target, err)
	}
	c.brk.Success(target)
	pc.forwardHits.Add(1)
	return body, resp.Header.Get(api.HeaderCache), nil
}

// peerFailed records one failed hop against a peer's breaker (the
// call site counts it in the right per-peer counter).
func (c *Cluster) peerFailed(target string, err error) {
	wasOpen := c.brk.Open(target)
	c.brk.Failure(target)
	if !wasOpen && c.brk.Open(target) {
		c.logf("peer %s marked down: %v", target, err)
	}
}

// Replicate pushes a computed body to the key's ring successors
// (write-behind: asynchronous, tracked so Close drains it). Targets are
// the first Replicas alive members after this shard in the key's
// successor order — normally the owner's replicas; when a failed-over
// shard computed the entry, the set naturally includes whichever
// remaining members inherit the key.
func (c *Cluster) Replicate(key string, body []byte) {
	if c.opts.Replicas <= 0 {
		return
	}
	sent := 0
	for _, m := range c.ring.Successors(key, c.ring.Len()) {
		if sent >= c.opts.Replicas {
			break
		}
		if m == c.self || !c.alive(m) {
			continue
		}
		sent++
		c.replQueued.Add(1)
		c.replPending.Add(1)
		c.repl.Add(1)
		go c.replicateTo(m, key, body)
	}
}

func (c *Cluster) replicateTo(target, key string, body []byte) {
	defer c.repl.Done()
	defer c.replPending.Add(-1)
	pc := c.peers[target]
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		"http://"+target+ReplicaPathPrefix+url.PathEscape(key), bytes.NewReader(body))
	if err == nil {
		req.Header.Set(ForwardHeader, c.self)
		var resp *http.Response
		resp, err = c.opts.Client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				err = fmt.Errorf("replicate to %s: %s", target, resp.Status)
			}
		}
	}
	if err != nil {
		c.replFailed.Add(1)
		if pc != nil {
			pc.replFails.Add(1)
		}
		c.peerFailed(target, err)
		c.logf("replication of %s to %s failed: %v", key, target, err)
		return
	}
	c.replAcked.Add(1)
	c.brk.Success(target)
	if pc != nil {
		pc.replicated.Add(1)
	}
}

// Probe sweeps every peer's /healthz once, synchronously: a responsive
// peer is marked alive (closing its breaker so routing recovers without
// waiting out the cooldown), an unresponsive one is marked down. The
// background loop calls this every ProbeInterval; tests call it
// directly for deterministic health transitions.
func (c *Cluster) Probe() {
	for m := range c.peers {
		c.probes.Add(1)
		ok := c.probeOne(m)
		c.mu.Lock()
		was := c.down[m]
		c.down[m] = !ok
		c.mu.Unlock()
		if ok {
			c.brk.Success(m)
		} else {
			c.probeFails.Add(1)
		}
		if was != !ok {
			if ok {
				c.logf("peer %s healthy again", m)
			} else {
				c.logf("peer %s failed /healthz probe", m)
			}
		}
	}
}

func (c *Cluster) probeOne(target string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+target+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (c *Cluster) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log.Printf("cluster: "+format, args...)
	}
}

// PeerStats is one peer's row in the /metricz cluster section.
type PeerStats struct {
	Addr         string `json:"addr"`
	Alive        bool   `json:"alive"`
	Forwards     uint64 `json:"forwards"`
	ForwardHits  uint64 `json:"forward_hits"`
	ForwardFails uint64 `json:"forward_fails"`
	Replicated   uint64 `json:"replicated"`
	ReplFails    uint64 `json:"replication_fails"`
}

// ReplicationStats tracks the write-behind pipeline; Pending is the
// replication lag — copies scheduled but not yet acknowledged.
type ReplicationStats struct {
	Queued  uint64 `json:"queued"`
	Acked   uint64 `json:"acked"`
	Failed  uint64 `json:"failed"`
	Pending int64  `json:"pending"`
}

// Stats is the /metricz cluster section.
type Stats struct {
	Self            string             `json:"self"`
	Members         []string           `json:"members"`
	Replicas        int                `json:"replicas"`
	Forwards        uint64             `json:"forwards"`       // outbound read-through attempts
	ForwardShared   uint64             `json:"forward_shared"` // collapsed by the forwarding-hop singleflight
	Proxied         uint64             `json:"proxied"`        // outbound whole-request proxies (sessions)
	ProxyFails      uint64             `json:"proxy_fails"`
	Failovers       uint64             `json:"failovers"`         // requests routed or degraded around a down shard
	ReceivedForward uint64             `json:"received_forwards"` // inbound forwarded requests served
	ReceivedReplica uint64             `json:"received_replicas"` // inbound replication PUTs accepted
	Probes          uint64             `json:"probes"`
	ProbeFails      uint64             `json:"probe_fails"`
	Replication     ReplicationStats   `json:"replication"`
	Peers           []PeerStats        `json:"peers"`
	Breaker         fault.BreakerStats `json:"breaker"`
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Self:            c.self,
		Members:         append([]string(nil), c.ring.Members()...),
		Replicas:        c.opts.Replicas,
		Forwards:        c.forwards.Load(),
		ForwardShared:   c.forwardShared.Load(),
		Proxied:         c.proxied.Load(),
		ProxyFails:      c.proxyFails.Load(),
		Failovers:       c.failovers.Load(),
		ReceivedForward: c.received.Load(),
		ReceivedReplica: c.replReceived.Load(),
		Probes:          c.probes.Load(),
		ProbeFails:      c.probeFails.Load(),
		Replication: ReplicationStats{
			Queued:  c.replQueued.Load(),
			Acked:   c.replAcked.Load(),
			Failed:  c.replFailed.Load(),
			Pending: c.replPending.Load(),
		},
		Breaker: c.brk.Stats(),
	}
	addrs := make([]string, 0, len(c.peers))
	for m := range c.peers {
		addrs = append(addrs, m)
	}
	sort.Strings(addrs)
	for _, m := range addrs {
		pc := c.peers[m]
		st.Peers = append(st.Peers, PeerStats{
			Addr:         m,
			Alive:        c.alive(m),
			Forwards:     pc.forwards.Load(),
			ForwardHits:  pc.forwardHits.Load(),
			ForwardFails: pc.forwardFails.Load(),
			Replicated:   pc.replicated.Load(),
			ReplFails:    pc.replFails.Load(),
		})
	}
	return st
}
