package main

import (
	"fmt"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/cluster"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/service"
	"timeprotection/internal/session"
	"timeprotection/internal/store"
)

// shardCount is the deployment size the serving workloads run against.
const shardCount = 3

// deployment is an in-process tpserved cluster wired the way
// cmd/tpserved wires one daemon per shard: a durable store, a cluster
// view with one replica per entry and background health probes, a
// journaled session registry replicating synchronously to its ring
// successor, and the service on a loopback listener. Shards restart on
// the same addresses from their stores.
//
// Unlike separate daemons, the shards share this process's snapshot and
// run memo (a restart keeps it warm), and no store is attached to the
// snapshot cache, since that attachment is process-wide.
type deployment struct {
	root   string
	addrs  []string
	shards []*shard
	tr     *tracer
	c      *layerCounters
}

// shard is one incarnation of one tpserved daemon.
type shard struct {
	addr      string
	st        *store.Store
	cl        *cluster.Cluster
	reg       *session.Registry
	svc       *service.Server
	srv       *http.Server
	transport *http.Transport
	served    chan struct{}
}

// layerCounters are tallied by the benchmark's wrappers around the
// layers, in traced and untraced runs alike (an atomic add per call).
type layerCounters struct {
	runs           atomic.Int64 // service runner calls (plan entries computed)
	forwards       atomic.Int64 // artefact read-through hops
	proxies        atomic.Int64 // whole-request session forwards
	replPuts       atomic.Int64 // replication PUTs, artefacts and journals
	replBytes      atomic.Int64
	journalUpdates atomic.Int64 // session journal writes through session.Journal
	journalBytes   atomic.Int64

	mu      sync.Mutex
	openMS  []float64   // every store.Open
	storeSt store.Stats // summed over closed store incarnations
}

// startDeployment binds shardCount loopback listeners, boots a shard on
// each, and waits until every shard answers /healthz.
func startDeployment(root string, tr *tracer, c *layerCounters) (*deployment, error) {
	d := &deployment{root: root, tr: tr, c: c}
	lns := make([]net.Listener, shardCount)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		d.addrs = append(d.addrs, ln.Addr().String())
	}
	if err := d.boot(lns); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// boot starts one shard incarnation per listener. Every listener is
// bound before any shard starts, so the full membership is reachable
// from the first probe on.
func (d *deployment) boot(lns []net.Listener) error {
	for i, ln := range lns {
		sh, err := d.bootShard(i, ln)
		if err != nil {
			closeListeners(lns[i:])
			return err
		}
		d.shards = append(d.shards, sh)
	}
	return d.waitHealthy()
}

func (d *deployment) bootShard(i int, ln net.Listener) (*shard, error) {
	addr := d.addrs[i]
	t0 := time.Now()
	st, err := store.Open(filepath.Join(d.root, fmt.Sprintf("shard%d", i)), store.Options{})
	if err != nil {
		return nil, err
	}
	d.c.mu.Lock()
	d.c.openMS = append(d.c.openMS, ms(time.Since(t0)))
	d.c.mu.Unlock()
	sh := &shard{
		addr:      addr,
		st:        st,
		transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second},
		served:    make(chan struct{}),
	}
	sh.cl, err = cluster.New(cluster.Options{
		Self:             addr,
		Peers:            d.addrs,
		Replicas:         1,
		ForwardTimeout:   15 * time.Second,
		ProbeInterval:    2 * time.Second,
		BreakerThreshold: 1,
		Client:           &http.Client{Transport: &hopTimer{next: sh.transport, d: d}},
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	sh.reg = session.NewRegistry(session.Options{
		MaxSessions: 64,
		IdleTTL:     5 * time.Minute,
		Journal:     &timedJournal{st: st, d: d},
		IDPrefix:    session.IDPrefixForAddr(addr),
		Replicate:   sh.cl.ReplicateSync,
	})
	sh.svc = service.New(service.Options{
		Parallel:     runtime.NumCPU(),
		CacheEntries: 1024,
		Timeout:      5 * time.Minute,
		Store:        st,
		Cluster:      sh.cl,
		Sessions:     sh.reg,
		Runner:       d.runner,
	})
	sh.srv = &http.Server{Handler: sh.svc.Handler()}
	go func() {
		defer close(sh.served)
		sh.srv.Serve(ln)
	}()
	return sh, nil
}

// waitHealthy polls every shard's /healthz until it answers 200.
func (d *deployment) waitHealthy() error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for _, sh := range d.shards {
		for {
			resp, err := client.Get("http://" + sh.addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %s not healthy: %v", sh.addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// stop drains every shard in cmd/tpserved's SIGTERM order, with the
// whole deployment quiesced: services first while every listener still
// accepts replication, then HTTP, sessions, cluster and store. Nothing
// is in flight by then, so the listeners close at once rather than
// through http.Server.Shutdown, whose idle-connection polling would add
// up to a second of noise to every restart.
func (d *deployment) stop() {
	for _, sh := range d.shards {
		sh.svc.Close()
	}
	for _, sh := range d.shards {
		sh.cl.WaitReplication()
	}
	for _, sh := range d.shards {
		sh.srv.Close()
		<-sh.served
	}
	for _, sh := range d.shards {
		sh.reg.Close()
		sh.cl.Close()
		sh.transport.CloseIdleConnections()
		st := sh.st.Stats()
		d.c.mu.Lock()
		d.c.storeSt.Puts += st.Puts
		d.c.storeSt.Updates += st.Updates
		d.c.storeSt.Hits += st.Hits
		d.c.storeSt.Misses += st.Misses
		d.c.mu.Unlock()
		sh.st.Close()
	}
	d.shards = nil
}

// restart stops every shard and boots each again on its address from
// its store. The caller keeps the load generator paused meanwhile.
func (d *deployment) restart() error {
	d.stop()
	lns := make([]net.Listener, len(d.addrs))
	for i, addr := range d.addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			closeListeners(lns)
			return fmt.Errorf("rebind %s: %w", addr, err)
		}
		lns[i] = ln
	}
	return d.boot(lns)
}

// runner is the service.Options.Runner timing wrapper around
// PlanEntry.Output.
func (d *deployment) runner(e experiments.PlanEntry) (string, error) {
	t0 := time.Now()
	out, err := e.Output()
	d.c.runs.Add(1)
	if d.tr.recording() {
		cause := d.tr.cause(e.CacheKey())
		d.tr.record("experiments.PlanEntry.Output", cause, cause, t0, time.Now(), e.JobName(), int64(len(out)))
	}
	return out, err
}

// timedJournal is the session.Options.Journal timing wrapper around a
// shard's store.
type timedJournal struct {
	st *store.Store
	d  *deployment
}

func (j *timedJournal) Get(key string) ([]byte, bool) { return j.st.Get(key) }

func (j *timedJournal) Update(key string, body []byte) error {
	t0 := time.Now()
	err := j.st.Update(key, body)
	j.d.c.journalUpdates.Add(1)
	j.d.c.journalBytes.Add(int64(len(body)))
	if j.d.tr.recording() {
		cause := j.d.tr.cause(key)
		j.d.tr.record("store.Update", cause, cause, t0, time.Now(), key, int64(len(body)))
	}
	return err
}

// hopTimer is the timing http.RoundTripper on cluster.Options.Client:
// every inter-shard request (read-through forward, session proxy,
// replication PUT, health probe) passes through it.
type hopTimer struct {
	next http.RoundTripper
	d    *deployment
}

func (h *hopTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, key := classifyHop(req)
	t0 := time.Now()
	resp, err := h.next.RoundTrip(req)
	switch kind {
	case "forward":
		h.d.c.forwards.Add(1)
	case "proxy":
		h.d.c.proxies.Add(1)
	case "replicate":
		h.d.c.replPuts.Add(1)
		h.d.c.replBytes.Add(req.ContentLength)
	}
	if h.d.tr.recording() {
		cause := h.d.tr.cause(key)
		h.d.tr.record("cluster.hop", cause, cause, t0, time.Now(), kind, req.ContentLength)
	}
	return resp, err
}

// classifyHop names an inter-shard request's kind and the resource key
// it works on (an artefact cache key or a session journal key).
func classifyHop(req *http.Request) (kind, key string) {
	p := req.URL.Path
	switch {
	case p == cluster.EntryPath:
		return "forward", entryKey(req.URL.Query())
	case strings.HasPrefix(p, cluster.ReplicaPathPrefix):
		k, _ := url.PathUnescape(strings.TrimPrefix(p, cluster.ReplicaPathPrefix))
		return "replicate", k
	case strings.HasPrefix(p, "/v1/sessions"):
		id := req.Header.Get(api.HeaderSessionID)
		if rest, ok := strings.CutPrefix(p, "/v1/sessions/"); ok {
			id, _, _ = strings.Cut(rest, "/")
		}
		return "proxy", session.Key(id)
	case p == "/healthz":
		return "probe", ""
	}
	return "other", ""
}

// entryKey rebuilds the cache key of a read-through forward from its
// query (cluster.EntryQuery), or "" if it names no artefact.
func entryKey(q url.Values) string {
	art, ok := experiments.LookupArtefact(q.Get("artefact"))
	plat, pok := hw.PlatformByName(q.Get("platform"))
	if !ok || !pok {
		return ""
	}
	num := func(name string) int64 {
		n, _ := strconv.ParseInt(q.Get(name), 10, 64)
		return n
	}
	cfg := experiments.Config{
		Platform: plat, Samples: int(num("samples")), SplashBlocks: int(num("blocks")),
		Seed: num("seed"), Table8Slices: int(num("slices")), Metrics: q.Get("metrics") == "true",
	}
	return experiments.PlanEntry{Artefact: art, Config: cfg.Canonical()}.CacheKey()
}
