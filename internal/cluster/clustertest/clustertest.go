// Package clustertest boots a whole tpserved cluster inside one test
// process: N service.Servers on loopback listeners, each with its own
// cluster view, optional durable store and optional deterministic fault
// injection, all sharing the process's snapshot/memoization state the
// way N real daemons share nothing. Because membership is static and
// addresses are real (127.0.0.1 with kernel-assigned ports), the HTTP
// forwarding, replication and health-probe paths are exercised exactly
// as in production, while everything stays deterministic: probing is
// off by default (tests call Probe explicitly), fault streams are
// seed-driven, and replication can be drained with WaitReplication.
package clustertest

import (
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"timeprotection/internal/cluster"
	"timeprotection/internal/fault"
	"timeprotection/internal/service"
	"timeprotection/internal/session"
	"timeprotection/internal/store"
)

// Options shapes the harness cluster. The zero value boots 3 bare
// shards (no stores, no faults, real drivers).
type Options struct {
	// Nodes is the shard count (default 3).
	Nodes int
	// Replicas per computed entry (cluster.Options.Replicas).
	Replicas int
	// StoreRoot, when non-empty, gives every node a durable store under
	// StoreRoot/node<i> — the failover tests' survival substrate.
	StoreRoot string
	// Service is the per-node service option template; Cluster and
	// Store are filled in per node. Runner etc. apply to every node.
	Service service.Options
	// Net, when non-nil, routes every node's peer traffic through a
	// deterministic network fault injector with this shared config —
	// drops, added latency and scripted one-way partitions, keyed per
	// (seed, src, dst, attempt). The per-node injector is exposed as
	// Node.Net so chaos tests can partition specific links mid-flight.
	Net *fault.NetConfig
	// Sessions, when non-nil, gives every node an interactive session
	// registry from this option template; per node the harness fills in
	// the journal (the node's store, when StoreRoot is set), synchronous
	// ring replication, and an address-derived ID prefix — the full
	// session-failover substrate.
	Sessions *session.Options
	// ClusterConfigure, when non-nil, adjusts one node's cluster options
	// before construction (the loop-guard test uses it to build
	// deliberately disagreeing rings).
	ClusterConfigure func(i int, o *cluster.Options)
	// Configure, when non-nil, adjusts one node's service options last
	// (per-node runners, counters).
	Configure func(i int, addr string, o *service.Options)
}

// Node is one in-process shard.
type Node struct {
	Addr     string
	Service  *service.Server
	Cluster  *cluster.Cluster
	Store    *store.Store
	Sessions *session.Registry
	Net      *fault.Net

	srv    *http.Server
	ln     net.Listener
	killed bool
}

// TestCluster is the booted harness.
type TestCluster struct {
	t     testing.TB
	Nodes []*Node
}

// Start boots the cluster and registers cleanup (graceful close of
// every surviving node). Listeners are bound first so the full static
// membership is known before any shard starts serving.
func Start(t testing.TB, opts Options) *TestCluster {
	t.Helper()
	n := opts.Nodes
	if n <= 0 {
		n = 3
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("clustertest: listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	tc := &TestCluster{t: t}
	for i := 0; i < n; i++ {
		copts := cluster.Options{
			Self:            addrs[i],
			Peers:           addrs,
			Replicas:        opts.Replicas,
			BreakerCooldown: time.Minute, // probes mark peers up; tests stay deterministic
			ForwardTimeout:  30 * time.Second,
		}
		var netInj *fault.Net
		if opts.Net != nil {
			netInj = fault.NewNet(addrs[i], nil, *opts.Net)
			copts.Client = &http.Client{Transport: netInj}
		}
		if opts.ClusterConfigure != nil {
			opts.ClusterConfigure(i, &copts)
		}
		cl, err := cluster.New(copts)
		if err != nil {
			t.Fatalf("clustertest: cluster.New(node %d): %v", i, err)
		}
		so := opts.Service
		so.Cluster = cl
		var st *store.Store
		if opts.StoreRoot != "" {
			st, err = store.Open(filepath.Join(opts.StoreRoot, "node"+strconv.Itoa(i)), store.Options{})
			if err != nil {
				t.Fatalf("clustertest: store.Open(node %d): %v", i, err)
			}
			so.Store = st
		}
		var reg *session.Registry
		if opts.Sessions != nil {
			sopts := *opts.Sessions
			if st != nil {
				sopts.Journal = st
			}
			sopts.IDPrefix = session.IDPrefixForAddr(addrs[i])
			sopts.Replicate = cl.ReplicateSync
			reg = session.NewRegistry(sopts)
			so.Sessions = reg
		}
		if opts.Configure != nil {
			opts.Configure(i, addrs[i], &so)
		}
		svc := service.New(so)
		node := &Node{
			Addr:     addrs[i],
			Service:  svc,
			Cluster:  cl,
			Store:    st,
			Sessions: reg,
			Net:      netInj,
			ln:       listeners[i],
			srv:      &http.Server{Handler: svc.Handler()},
		}
		tc.Nodes = append(tc.Nodes, node)
		go node.srv.Serve(listeners[i])
	}
	t.Cleanup(tc.closeAll)
	return tc
}

// closeAll drains every surviving node: HTTP first, then service (the
// pool, whose workers finish their store writes), then sessions, then cluster (replication
// pushes), then the store — the same order cmd/tpserved uses on
// SIGTERM.
func (tc *TestCluster) closeAll() {
	for _, n := range tc.Nodes {
		if !n.killed {
			n.srv.Close()
		}
		n.Service.Close()
		if n.Sessions != nil {
			n.Sessions.Close()
		}
		n.Cluster.Close()
		if n.Store != nil {
			n.Store.Close()
		}
	}
}

// Kill stops node i abruptly: the listener and every open connection
// die mid-flight, like a SIGKILLed shard as seen from its peers. The
// in-process service object is left un-drained until test cleanup.
func (tc *TestCluster) Kill(i int) {
	tc.t.Helper()
	n := tc.Nodes[i]
	if n.killed {
		return
	}
	n.killed = true
	n.srv.Close()
}

// URL builds a request URL against node i.
func (tc *TestCluster) URL(i int, path string) string {
	return "http://" + tc.Nodes[i].Addr + path
}

// Get fetches a path from node i, failing the test on transport errors.
func (tc *TestCluster) Get(i int, path string) (*http.Response, []byte) {
	tc.t.Helper()
	resp, err := http.Get(tc.URL(i, path))
	if err != nil {
		tc.t.Fatalf("GET node%d %s: %v", i, path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		tc.t.Fatalf("read node%d %s: %v", i, path, err)
	}
	return resp, body
}

// TryGet fetches a path from node i, returning transport errors instead
// of failing (chaos tests hit killed nodes on purpose).
func (tc *TestCluster) TryGet(i int, path string) (*http.Response, []byte, error) {
	resp, err := http.Get(tc.URL(i, path))
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// OwnerIndex returns which node the (shared, agreed) ring assigns a key
// to, resolved through node 0's view.
func (tc *TestCluster) OwnerIndex(key string) int {
	tc.t.Helper()
	owner := tc.Nodes[0].Cluster.Owner(key)
	for i, n := range tc.Nodes {
		if n.Addr == owner {
			return i
		}
	}
	tc.t.Fatalf("owner %q is not a harness node", owner)
	return -1
}

// Index returns the node index for an address.
func (tc *TestCluster) Index(addr string) int {
	tc.t.Helper()
	for i, n := range tc.Nodes {
		if n.Addr == addr {
			return i
		}
	}
	tc.t.Fatalf("address %q is not a harness node", addr)
	return -1
}
