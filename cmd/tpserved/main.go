// Command tpserved is a long-running daemon that serves the paper's
// tables and figures over HTTP. Runs are deterministic, so every
// response is cached content-addressed by (artefact, platform,
// canonical config); repeated and concurrent identical requests cost
// one driver run.
//
// Usage:
//
//	tpserved                              # listen on :8080
//	tpserved -addr :9000 -parallel 8      # bounded worker pool of 8
//	tpserved -store /var/lib/tpserved     # durable tier: restarts serve from disk
//	tpserved -max-inflight 256 -log       # shed overload, log every request
//	tpserved -peers a:8080,b:8080,c:8080 -self a:8080 -store DIR   # one shard of three
//	tpserved -peers ... -net-fault-drop 0.2 -net-fault-seed 3   # inter-shard network chaos
//
// API:
//
//	GET  /v1/artefacts                    # registry listing (JSON; ?platform= and ?paper= filter)
//	GET  /v1/artefacts/{name}?platform=haswell&samples=150&seed=42&metrics=false
//	POST /v1/runs                         # PlanSpec as JSON; results stream in plan order
//	POST   /v1/sessions                   # boot an interactive attack session
//	GET    /v1/sessions                   # live session listing
//	GET    /v1/sessions/{id}              # session status + verdict when done
//	POST   /v1/sessions/{id}/step         # advance the attack; returns samples + running MI
//	GET    /v1/sessions/{id}/stream       # live SSE feed: trace events, MI updates, lifecycle
//	DELETE /v1/sessions/{id}              # tear the session down
//	GET  /healthz
//	GET  /metricz                         # cache / singleflight / pool / session counters (JSON)
//
// Errors on the v1 surface are a JSON envelope
// ({"error":{"code","message","artefact"}}); see docs/api.md.
//
// Interactive sessions (-max-sessions, default 64; 0 disables the
// surface) each own a snapshot-forked machine with a prepared covert-
// channel attack. A session stepped to completion produces exactly the
// samples and MI verdict of the equivalent one-shot tpattack run for
// the same seed. Sessions idle past -session-ttl are reaped; event
// streams are bounded and lossy, so a stalled consumer never blocks
// the simulation.
//
// With -store, sessions are also durable: each session's spec and
// position (simulation chunks run, steps taken, last sequenced step)
// are journaled before the step is acknowledged, in a record that does
// not grow with the step count, and a restarted daemon lazily restores
// a journaled session by forking a fresh machine and deterministically
// advancing it to that position — kill -9 mid-session then
// step-to-completion is byte-identical to the uninterrupted run. Steps may carry a client sequence number
// (?seq= or body "seq"): retrying the last applied sequence returns
// the byte-identical cached response without advancing the session
// (stale sequences answer 409 seq_conflict), which makes "retry the
// last seq" the complete client recovery rule across restarts and
// shard failovers. In a cluster, each session hashes to a sticky ring
// owner, any shard forwards /v1/sessions/* to it (streams included),
// the journal replicates synchronously to -replicas ring successors,
// and a successor adopts the session by restoring it when the owner
// dies.
// The -net-fault-* flags install a deterministic network fault
// injector (drops, added latency, keyed by seed/src/dst/attempt) on
// the inter-shard transport for partition drills.
//
// Artefact bodies are byte-identical to cmd/tpbench's output for the
// same config. SIGINT/SIGTERM drain gracefully: the listener closes,
// in-flight requests and queued driver runs finish — including their
// write-behind store flushes — then the process exits.
//
// With -store DIR the in-memory LRU becomes a read-through /
// write-behind fast tier over a crash-safe on-disk store
// (internal/store): every computed artefact is atomically persisted
// and checksummed, a restart serves previously computed artefacts from
// disk (X-Cache: disk) without re-running drivers, corrupt or torn
// entries are quarantined and transparently recomputed, and /metricz
// reports store hit/corrupt/quarantine/GC counters. The same directory
// is shared with tpbench -store: both front-ends address results by
// the same canonical content key.
//
// With -peers and -self, N daemons form a statically-membered cluster
// (internal/cluster): a consistent-hash ring over the content-addressed
// key space assigns each artefact key an owning shard, non-owners
// forward requests to the owner (X-Cache: forward, loop-guarded,
// singleflight at both hops), and each computed entry is replicated
// write-behind to -replicas ring successors so a killed shard's results
// survive on whoever inherits its keys. Routing is health-gated through
// /healthz probes plus a per-peer circuit breaker; any peer failure
// falls back to local compute — a cluster never turns a servable
// request into an error. /metricz gains a "cluster" section (per-peer
// forwards, failovers, replication lag).
//
// Resilience: a driver run is deterministic, so a failed run is
// reported once (500) and never retried — a retry would fail the same
// way. A panicking driver is isolated and converted to an error: no
// goroutine leaks, no singleflight key wedges, no worker dies, and the
// next request for the key runs it afresh. Overload is shed with 503
// (-max-inflight), and -log emits one structured line per request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"timeprotection/internal/cluster"
	"timeprotection/internal/fault"
	"timeprotection/internal/service"
	"timeprotection/internal/session"
	"timeprotection/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		parallel = flag.Int("parallel", runtime.NumCPU(), "concurrent experiment workers")
		queue    = flag.Int("queue", 0, "pending-run queue bound (0 = 4*parallel); overflow returns 429")
		cacheMax = flag.Int("cache", 1024, "maximum cached artefact bodies")
		timeout  = flag.Duration("timeout", 5*time.Minute, "per-entry wait bound (each batch entry gets its own)")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown drain bound after SIGTERM")

		storeDir = flag.String("store", "", "durable result store directory; restarts serve previously computed artefacts from disk (X-Cache: disk)")
		storeMax = flag.Int64("store-max-bytes", 0, "store size cap; LRU entries beyond it are garbage-collected (0 = unbounded)")

		peers      = flag.String("peers", "", "comma-separated host:port cluster membership (static); enables sharded serving")
		self       = flag.String("self", "", "this shard's advertised host:port (required with -peers; added to the member set if absent)")
		replicas   = flag.Int("replicas", 1, "ring successors receiving a write-behind copy of each computed entry (0 = no replication)")
		fwdTimeout = flag.Duration("forward-timeout", 15*time.Second, "per-peer read-through request bound")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "background /healthz sweep period (0 = passive health only)")

		maxInflight = flag.Int("max-inflight", 0, "shed requests beyond this many in flight with 503 (0 = unlimited)")
		logReqs     = flag.Bool("log", false, "log one structured line per request to stderr")

		maxSessions = flag.Int("max-sessions", 64, "concurrent interactive attack sessions (0 disables /v1/sessions)")
		sessionTTL  = flag.Duration("session-ttl", 5*time.Minute, "idle sessions (not stepped) are reaped after this long")

		netDrop    = flag.Float64("net-fault-drop", 0, "injected peer-request drop probability in [0,1] (clustered chaos drills)")
		netLatency = flag.Float64("net-fault-latency", 0, "injected peer-request added-latency probability in [0,1]")
		netDelay   = flag.Duration("net-fault-delay", 5*time.Millisecond, "latency added when a network latency fault fires")
		netSeed    = flag.Int64("net-fault-seed", 1, "seed for the deterministic network fault stream")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "tpserved: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	for _, rate := range []float64{*netDrop, *netLatency} {
		if rate < 0 || rate > 1 {
			fmt.Fprintf(os.Stderr, "tpserved: -net-fault-* rates must be in [0,1], got %v\n", rate)
			os.Exit(2)
		}
	}

	opts := service.Options{
		Parallel:     *parallel,
		Queue:        *queue,
		CacheEntries: *cacheMax,
		Timeout:      *timeout,
		MaxInflight:  *maxInflight,
	}
	if *logReqs {
		opts.AccessLog = log.New(os.Stderr, "tpserved: ", log.LstdFlags|log.Lmicroseconds)
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{
			MaxBytes: *storeMax,
			Log:      log.New(os.Stderr, "tpserved: ", log.LstdFlags),
		})
		if err != nil {
			log.Fatalf("tpserved: %v", err)
		}
		opts.Store = st
		stats := st.Stats()
		log.Printf("tpserved: durable store %s (%d entries recovered, %d quarantined, %d journal records torn)",
			*storeDir, stats.Recovered, stats.Quarantined, stats.TornRecords)
	}
	var cl *cluster.Cluster
	if *peers != "" {
		if *self == "" {
			fmt.Fprintln(os.Stderr, "tpserved: -peers requires -self (this shard's advertised host:port)")
			os.Exit(2)
		}
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		copts := cluster.Options{
			Self:             *self,
			Peers:            members,
			Replicas:         *replicas,
			ForwardTimeout:   *fwdTimeout,
			ProbeInterval:    *probeEvery,
			BreakerThreshold: 1,
			Log:              log.New(os.Stderr, "tpserved: ", log.LstdFlags),
		}
		if *netDrop > 0 || *netLatency > 0 {
			// Deterministic network chaos: every peer request this shard
			// sends passes through the seed-driven injector — drops,
			// added latency, and scripted partitions, keyed per
			// (seed, src, dst, attempt).
			copts.Client = &http.Client{Transport: fault.NewNet(*self, nil, fault.NetConfig{
				Seed:  *netSeed,
				Rates: fault.NetRates{Drop: *netDrop, Latency: *netLatency},
				Delay: *netDelay,
			})}
			log.Printf("tpserved: NETWORK FAULT INJECTION enabled (drop=%.2f latency=%.2f seed=%d) — chaos drill, not production",
				*netDrop, *netLatency, *netSeed)
		}
		var err error
		cl, err = cluster.New(copts)
		if err != nil {
			log.Fatalf("tpserved: %v", err)
		}
		opts.Cluster = cl
		log.Printf("tpserved: cluster of %d shards, self=%s, %d replicas per entry",
			len(cl.Stats().Members), *self, *replicas)
	}
	var reg *session.Registry
	if *maxSessions > 0 {
		sopts := session.Options{
			MaxSessions: *maxSessions,
			IdleTTL:     *sessionTTL,
		}
		if st != nil {
			// Durable session journal: every acknowledged step is
			// journaled through the store, so a killed daemon restores
			// its sessions on restart by deterministic replay.
			sopts.Journal = st
		}
		if cl != nil {
			// Clustered: session IDs carry this shard's address (ring-
			// unique minting) and journals replicate synchronously to the
			// ring successors that would adopt the session on failover.
			sopts.IDPrefix = session.IDPrefixForAddr(*self)
			sopts.Replicate = cl.ReplicateSync
		}
		reg = session.NewRegistry(sopts)
		opts.Sessions = reg
		log.Printf("tpserved: interactive sessions enabled (max %d, idle TTL %v, journaled=%v)",
			*maxSessions, *sessionTTL, st != nil)
	}

	svc := service.New(opts)
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("tpserved: listening on %s (%d workers)", *addr, *parallel)

	select {
	case err := <-errc:
		log.Fatalf("tpserved: %v", err)
	case <-ctx.Done():
	}

	log.Printf("tpserved: draining (up to %v)", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("tpserved: shutdown: %v", err)
	}
	svc.Close() // waits for in-flight runs and their write-behind store flushes
	if reg != nil {
		reg.Close() // ends live sessions; streams get a closed event
	}
	if cl != nil {
		cl.Close() // waits for in-flight replication pushes
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("tpserved: store close: %v", err)
		}
	}
	log.Printf("tpserved: drained, exiting")
}
