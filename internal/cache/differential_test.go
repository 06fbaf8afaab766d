package cache

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"timeprotection/internal/enc"
)

// This file checks the optimised Cache against refCache, a naive
// reference written independently from the documented contract: explicit
// per-line recency counters, straightforward scans, no stamp tricks.
// Random operation sequences must produce identical hit/miss/eviction
// results, statistics, and final line-by-line content on both.

type refLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	touched uint64 // recency; larger = more recent
}

type refCache struct {
	cfg      Config
	sets     int
	lineBits uint
	clock    uint64
	pin      uint64
	lines    [][]refLine // [set][way]
}

func newRef(cfg Config) *refCache {
	r := &refCache{cfg: cfg, sets: cfg.Sets()}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		r.lineBits++
	}
	r.lines = make([][]refLine, r.sets)
	for i := range r.lines {
		r.lines[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) setOf(addr uint64) int { return int(addr>>r.lineBits) & (r.sets - 1) }

func (r *refCache) lineOf(addr uint64) uint64 { return addr &^ uint64(r.cfg.LineSize-1) }

func (r *refCache) fullMask() uint64 { return uint64(1)<<uint(r.cfg.Ways) - 1 }

func (r *refCache) normalMask() uint64 {
	if r.pin == 0 {
		return ^uint64(0)
	}
	return ^r.pin
}

// touch mirrors the documented access contract: hits are honoured in
// any way; a miss fills the least-recently-touched way among those the
// mask admits, preferring an invalid way (oldest possible).
func (r *refCache) touch(indexAddr, tagAddr uint64, mark bool, wayMask uint64) (bool, Eviction) {
	r.clock++
	ways := r.lines[r.setOf(indexAddr)]
	tag := r.lineOf(tagAddr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].touched = r.clock
			if mark {
				ways[i].dirty = true
			}
			return true, Eviction{}
		}
	}
	victim := -1
	for i := range ways {
		if wayMask&(1<<uint(i)) == 0 {
			continue
		}
		if victim < 0 {
			victim = i
			continue
		}
		a, b := &ways[i], &ways[victim]
		// An invalid way is older than any valid one; among two valid
		// (or two invalid) ways the smaller recency loses, ties keeping
		// the earlier way.
		if (!a.valid && b.valid) || (a.valid == b.valid && a.touched < b.touched) {
			victim = i
		}
	}
	if victim < 0 {
		return false, Eviction{}
	}
	var ev Eviction
	v := &ways[victim]
	if v.valid {
		ev = Eviction{Tag: v.tag, Valid: true, Dirty: v.dirty}
	}
	*v = refLine{tag: tag, valid: true, dirty: mark, touched: r.clock}
	return false, ev
}

func (r *refCache) Access(indexAddr, tagAddr uint64, write bool) (bool, Eviction) {
	return r.touch(indexAddr, tagAddr, write, r.normalMask())
}

func (r *refCache) AccessMasked(indexAddr, tagAddr uint64, write bool, mask uint64) (bool, Eviction) {
	return r.touch(indexAddr, tagAddr, write, mask)
}

func (r *refCache) Fill(indexAddr, tagAddr uint64, dirty bool) Eviction {
	_, ev := r.touch(indexAddr, tagAddr, dirty, r.normalMask())
	return ev
}

func (r *refCache) FillMasked(indexAddr, tagAddr uint64, dirty bool, mask uint64) Eviction {
	_, ev := r.touch(indexAddr, tagAddr, dirty, mask)
	return ev
}

func (r *refCache) FillPinned(indexAddr, tagAddr uint64) Eviction {
	if r.pin == 0 {
		return Eviction{}
	}
	_, ev := r.touch(indexAddr, tagAddr, false, r.pin)
	return ev
}

func (r *refCache) PinWays(mask uint64) {
	full := r.fullMask()
	if mask&full == full {
		mask &= full >> 1
	}
	r.pin = mask & full
}

func (r *refCache) Flush() (valid, dirty int) {
	for s := range r.lines {
		for w := range r.lines[s] {
			l := &r.lines[s][w]
			if l.valid {
				valid++
				if l.dirty {
					dirty++
				}
			}
			*l = refLine{}
		}
	}
	return valid, dirty
}

func (r *refCache) FlushMatching(drop func(uint64) bool) (valid, dirty int) {
	for s := range r.lines {
		for w := range r.lines[s] {
			l := &r.lines[s][w]
			if l.valid && drop(l.tag) {
				valid++
				if l.dirty {
					dirty++
				}
				*l = refLine{}
			}
		}
	}
	return valid, dirty
}

func (r *refCache) InvalidateTag(tagAddr uint64) bool {
	tag := r.lineOf(tagAddr)
	aliases := 1
	if r.cfg.Virtual {
		if span := r.sets * r.cfg.LineSize; span > pageSize {
			aliases = span / pageSize
		}
	}
	setsPerPage := r.sets / aliases
	baseSet := r.setOf(tagAddr) % setsPerPage
	found := false
	for a := 0; a < aliases; a++ {
		ways := r.lines[baseSet+a*setsPerPage]
		for w := range ways {
			if ways[w].valid && ways[w].tag == tag {
				ways[w] = refLine{}
				found = true
			}
		}
	}
	return found
}

// snapshot returns a canonical (sorted) dump of valid lines as
// tag<<1|dirty values for content comparison.
func snapshot(visit func(func(tag uint64, dirty bool))) []uint64 {
	var out []uint64
	visit(func(tag uint64, dirty bool) {
		v := tag << 1
		if dirty {
			v |= 1
		}
		out = append(out, v)
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refCache) VisitLines(fn func(tag uint64, dirty bool)) {
	for s := range r.lines {
		for w := range r.lines[s] {
			if r.lines[s][w].valid {
				fn(r.lines[s][w].tag, r.lines[s][w].dirty)
			}
		}
	}
}

// TestCacheDifferential drives random operation sequences through the
// real cache and the reference on several geometries, including a
// virtually indexed cache with aliasing (span > page), and requires
// identical results at every step. The cache's running valid-line count
// must equal the per-set recount after every operation; periodically
// the cache is also round-tripped through its snapshot codec and the
// sequence continues on the decoded copy, whose count must be re-derived
// and whose re-encoding must match byte for byte.
func TestCacheDifferential(t *testing.T) {
	geometries := []Config{
		{Name: "tiny", Size: 1 << 10, Ways: 2, LineSize: 32, HitLatency: 1},
		{Name: "l1-vipt", Size: 16 << 10, Ways: 2, LineSize: 64, HitLatency: 4, Virtual: true}, // 8 KiB span: 2 aliases
		{Name: "l2", Size: 32 << 10, Ways: 8, LineSize: 64, HitLatency: 12},
		{Name: "wide", Size: 8 << 10, Ways: 16, LineSize: 64, HitLatency: 30},
	}
	for _, cfg := range geometries {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(cfg.Name)) * 12345))
			real := New(cfg)
			ref := newRef(cfg)

			// Addresses come from a small frame pool so sets conflict
			// constantly; virtual and physical views share page-offset
			// bits, as VIPT hardware guarantees.
			addr := func() (index, tag uint64) {
				off := uint64(rng.Intn(4096))
				pfn := uint64(rng.Intn(48))
				tag = pfn<<12 | off
				index = tag
				if cfg.Virtual {
					index = uint64(rng.Intn(96))<<12 | off
				}
				return index, tag
			}
			mask := func() uint64 { return uint64(rng.Intn(1 << uint(cfg.Ways))) }

			for op := 0; op < 6000; op++ {
				switch k := rng.Intn(20); {
				case k < 8: // demand access
					ia, ta := addr()
					w := rng.Intn(2) == 0
					h1, e1 := real.Access(ia, ta, w)
					h2, e2 := ref.Access(ia, ta, w)
					if h1 != h2 || e1 != e2 {
						t.Fatalf("op %d Access(%#x,%#x,%v): real (%v,%+v) ref (%v,%+v)", op, ia, ta, w, h1, e1, h2, e2)
					}
				case k < 10: // masked access (CAT)
					ia, ta := addr()
					w, m := rng.Intn(2) == 0, mask()
					h1, e1 := real.AccessMasked(ia, ta, w, m)
					h2, e2 := ref.AccessMasked(ia, ta, w, m)
					if h1 != h2 || e1 != e2 {
						t.Fatalf("op %d AccessMasked(%#x,%#x,%v,%#x): real (%v,%+v) ref (%v,%+v)", op, ia, ta, w, m, h1, e1, h2, e2)
					}
				case k < 13: // prefetch/writeback fill
					ia, ta := addr()
					d := rng.Intn(2) == 0
					if e1, e2 := real.Fill(ia, ta, d), ref.Fill(ia, ta, d); e1 != e2 {
						t.Fatalf("op %d Fill(%#x,%#x,%v): real %+v ref %+v", op, ia, ta, d, e1, e2)
					}
				case k < 14: // masked fill
					ia, ta := addr()
					d, m := rng.Intn(2) == 0, mask()
					if e1, e2 := real.FillMasked(ia, ta, d, m), ref.FillMasked(ia, ta, d, m); e1 != e2 {
						t.Fatalf("op %d FillMasked: real %+v ref %+v", op, e1, e2)
					}
				case k < 15: // lockdown fill
					ia, ta := addr()
					if e1, e2 := real.FillPinned(ia, ta), ref.FillPinned(ia, ta); e1 != e2 {
						t.Fatalf("op %d FillPinned: real %+v ref %+v", op, e1, e2)
					}
				case k < 16: // change lockdown mask
					m := mask()
					real.PinWays(m)
					ref.PinWays(m)
					if got, want := real.PinnedWays(), ref.pin; got != want {
						t.Fatalf("op %d PinWays(%#x): real %#x ref %#x", op, m, got, want)
					}
				case k < 17: // back-invalidation
					_, ta := addr()
					if b1, b2 := real.InvalidateTag(ta), ref.InvalidateTag(ta); b1 != b2 {
						t.Fatalf("op %d InvalidateTag(%#x): real %v ref %v", op, ta, b1, b2)
					}
				case k < 18: // selective flush: drop one page colour
					pfnBit := uint64(1) << uint(12+rng.Intn(3))
					drop := func(tag uint64) bool { return tag&pfnBit != 0 }
					v1, d1 := real.FlushMatching(drop)
					v2, d2 := ref.FlushMatching(drop)
					if v1 != v2 || d1 != d2 {
						t.Fatalf("op %d FlushMatching: real (%d,%d) ref (%d,%d)", op, v1, d1, v2, d2)
					}
				case k < 19: // full flush
					v1, d1 := real.Flush()
					v2, d2 := ref.Flush()
					if v1 != v2 || d1 != d2 {
						t.Fatalf("op %d Flush: real (%d,%d) ref (%d,%d)", op, v1, d1, v2, d2)
					}
				default: // residency probe
					ia, ta := addr()
					in1 := real.Contains(ia, ta)
					in2 := false
					for _, l := range ref.lines[ref.setOf(ia)] {
						if l.valid && l.tag == ref.lineOf(ta) {
							in2 = true
						}
					}
					if in1 != in2 {
						t.Fatalf("op %d Contains(%#x,%#x): real %v ref %v", op, ia, ta, in1, in2)
					}
				}

				if got, want := real.nvalid, real.ValidLines(); got != want {
					t.Fatalf("op %d: running valid count %d, recount %d", op, got, want)
				}
				if op%250 == 249 {
					var w enc.Writer
					real.EncodeState(&w)
					dec := New(cfg)
					if err := dec.DecodeState(enc.NewReader(w.Bytes())); err != nil {
						t.Fatalf("op %d: decode: %v", op, err)
					}
					if got, want := dec.nvalid, dec.ValidLines(); got != want || got != real.nvalid {
						t.Fatalf("op %d: decoded valid count %d, recount %d, original %d", op, got, want, real.nvalid)
					}
					var w2 enc.Writer
					dec.EncodeState(&w2)
					if !bytes.Equal(w.Bytes(), w2.Bytes()) {
						t.Fatalf("op %d: re-encoding the decoded cache changed its bytes", op)
					}
					real = dec
				}
				if op%500 == 499 {
					s1, s2 := snapshot(real.VisitLines), snapshot(ref.VisitLines)
					if len(s1) != len(s2) {
						t.Fatalf("op %d content diverged: %d vs %d lines", op, len(s1), len(s2))
					}
					for i := range s1 {
						if s1[i] != s2[i] {
							t.Fatalf("op %d content diverged at line %d: %#x vs %#x", op, i, s1[i], s2[i])
						}
					}
				}
			}
		})
	}
}
