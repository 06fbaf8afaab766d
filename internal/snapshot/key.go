package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// Key names a captured machine or a memoized run: the SHA-256 of a
// complete, deterministic fingerprint of its configuration. The
// registry and the run memo retain one per entry, so it is a fixed 32
// bytes rather than the kilobyte rendering of the platform it digests.
type Key [sha256.Size]byte

// KeyOf digests kind and the %+v rendering of each part. Every part
// must render completely and deterministically: plain values and
// structs of them, whose pointer, map and func fields are nil — a
// platform, a kernel.Config, a core boot shape, a channel Spec without
// its tracer and hook. Kinds keep the key spaces of different callers
// apart.
func KeyOf(kind string, parts ...any) Key {
	h := sha256.New()
	io.WriteString(h, kind)
	for _, p := range parts {
		fmt.Fprintf(h, "|%+v", p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// String returns the key in lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }
