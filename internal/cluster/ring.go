// Package cluster turns N tpserved daemons into one sharded service
// over the content-addressed key space both front-ends already share
// (experiments.PlanEntry.CacheKey). A consistent-hash ring with static
// membership assigns every key exactly one owning shard; non-owners
// forward requests to the owner (peer read-through, singleflight at the
// forwarding hop, loop-guard header so a misconfigured ring degrades to
// local compute instead of ping-ponging); owners replicate computed
// durable-store entries to their ring successors so a killed owner's
// results survive on the shard that inherits its keys. Routing is
// health-gated: each peer has one health record, written by /healthz
// probes and by the outcome of every hop to it, and any forwarding
// failure falls back to local compute — the drivers are
// deterministic, so every shard can always answer every request; the
// cluster only makes the common case cheap, never a request fail.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual-node count: enough
// points that key ownership spreads within ~±15% of uniform and a
// membership change remaps only the leaving/joining member's arcs.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over a static member set.
// Construction sorts the members, so rings built from any permutation
// of the same peer list place every key identically — membership is
// configuration, not arrival order.
type Ring struct {
	members []string // sorted, deduplicated
	points  []point  // sorted by hash
}

// point is one virtual node: a position on the hash circle owned by a
// member.
type point struct {
	hash   uint64
	member int // index into members
}

// NewRing builds a ring with vnodes virtual nodes per member
// (non-positive selects DefaultVirtualNodes). Duplicate and empty
// member names are dropped.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(m + "#" + strconv.Itoa(v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Tie-break on member index (members are sorted) so equal hash
		// points order deterministically regardless of input order.
		return p.member < q.member
	})
	return r
}

// hash64 maps a string onto the ring circle: the first 8 bytes of its
// SHA-256. Keys routed through the ring are already hex SHA-256 content
// addresses, but member#vnode labels are not — hashing both through
// SHA-256 keeps placement uniform and platform-independent.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the sorted member list (shared slice; do not mutate).
func (r *Ring) Members() []string { return r.members }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning a key: the first virtual node at or
// clockwise after the key's hash. An empty ring owns nothing ("").
func (r *Ring) Owner(key string) string {
	if len(r.members) == 0 {
		return ""
	}
	return r.members[r.points[r.search(key)].member]
}

// Successors returns up to n distinct members in ring order starting at
// the key's owner — the owner first, then the members that inherit the
// key if every predecessor disappears. This is both the failover
// candidate order and the replica set (owner plus n-1 replicas).
func (r *Ring) Successors(key string, n int) []string {
	if len(r.members) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// search finds the index of the first point at or clockwise after the
// key's hash (wrapping past the top of the circle).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
