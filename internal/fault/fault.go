// Package fault provides deterministic, seed-driven fault injection for
// the parts of the serving stack that fail transiently: the
// inter-shard network (Net) and the durable store's disk (Disk).
// Decisions are drawn from splitmix64 streams keyed by the seed and the
// operation's identity, so a given seed reproduces the exact same fault
// sequence no matter how goroutines interleave: chaos runs are stable,
// and any failure can be replayed from its seed.
//
// The injectors are test harness, not production code: the store tests
// pass Disk's hooks to store.Options, and internal/cluster/clustertest
// routes peer traffic through Net. No command links this package. There
// is no driver fault injector either: a driver run is a deterministic
// function of its plan entry, so a real driver failure repeats on every
// attempt and the service reports it once instead of retrying it.
package fault

import "errors"

// ErrInjected marks an error produced by fault injection rather than by
// the wrapped transport or filesystem.
var ErrInjected = errors.New("injected fault")

const gamma = 0x9e3779b97f4a7c15 // splitmix64 increment

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a key into the stream base (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// unit maps a uniform uint64 onto [0, 1) with 53-bit precision.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
