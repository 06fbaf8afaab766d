// Package cache models the microarchitectural state that gives rise to
// timing channels: set-associative caches, TLBs, branch predictors and
// prefetchers, plus a multi-level hierarchy combining them.
//
// The model is cycle-approximate and fully deterministic: every lookup
// is an explicit function call, there is no concurrency, and replacement
// is strict LRU. Timing channels in this model arise for the same
// structural reason as on silicon — competition for finite, set-indexed
// state — which is the property the Time Protection paper's experiments
// depend on.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name       string // e.g. "L1-D"
	Size       int    // total bytes, power of two
	Ways       int    // associativity, power of two
	LineSize   int    // bytes per line, power of two
	HitLatency int    // cycles charged when the access hits at this level
	Virtual    bool   // indexed by virtual address (L1 on most parts)
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.Size == 0 {
		return 0
	}
	return c.Size / (c.Ways * c.LineSize)
}

// Colours returns the number of page colours of a physically indexed
// cache for the given page size: Size / (Ways * PageSize), clamped to a
// minimum of one (small caches have a single colour and cannot be
// partitioned by the OS).
func (c Config) Colours(pageSize int) int {
	n := c.Size / (c.Ways * pageSize)
	if n < 1 {
		return 1
	}
	return n
}

// invalidTag marks an empty way in the tag array. Real tags are
// line-aligned addresses, so the all-ones pattern can never collide with
// one and the tag-match scan needs no separate validity check.
const invalidTag = ^uint64(0)

// lruIdentity is the nibble-stack encoding of ways 0..15 in order
// (way p at stack position p).
const lruIdentity = 0xFEDCBA9876543210

// lruMul broadcasts a way index across all 16 nibbles.
const lruMul = 0x1111111111111111

// lruPos returns the stack position of way in the nibble stack. The
// stack always holds a permutation of the way indices (unused high
// nibbles are 0xF fillers, which only 16-way geometries can reach — and
// those have no fillers), so exactly one in-range nibble matches and the
// standard zero-nibble SWAR scan finds the lowest match.
func lruPos(lru uint64, way int) uint {
	x := lru ^ (uint64(way) * lruMul)
	t := (x - lruMul) & ^x & 0x8888888888888888
	return uint(bits.TrailingZeros64(t)) >> 2
}

// lruToFront moves way to stack position 0 (most recently used),
// shifting the nibbles above it down by one place.
func lruToFront(lru uint64, way int) uint64 {
	p := lruPos(lru, way)
	if p == 0 {
		return lru
	}
	low := lru & (1<<(4*p) - 1)
	high := lru &^ (1<<(4*(p+1)) - 1)
	return high | low<<4 | uint64(way)
}

// lruInit builds the initial stack for a ways-way set: identity order
// with 0xF fillers above.
func lruInit(ways int) uint64 {
	if ways >= 16 {
		return lruIdentity
	}
	mask := uint64(1)<<(4*uint(ways)) - 1
	return (lruIdentity & mask) | ^mask
}

// setMeta is the per-set replacement state: an LRU stack of way indices
// (4 bits each, MRU at nibble 0) plus validity and dirty masks. Keeping
// it per set — instead of a stamp per line — makes the victim choice
// O(1) and shrinks the state the snapshot layer has to copy on fork.
type setMeta struct {
	lru          uint64
	valid, dirty uint16
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Tag   uint64 // full line address (line-aligned) reconstructed from tag
	Valid bool
	Dirty bool
}

// Cache is a single set-associative, write-back, write-allocate cache
// with LRU replacement. Lines are identified by a full line-address tag,
// so the same structure serves physically and virtually indexed levels
// (the caller chooses which address forms the index).
//
// State is held as flat arrays — a tag per line and a setMeta per set —
// rather than an array of line structs: the tag-match scan touches one
// or two cache lines of host memory per set instead of several, the LRU
// victim comes from the nibble stack without a second scan, and the
// snapshot layer can freeze and fork the arrays wholesale.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	setMask  uint64
	lineMask uint64    // LineSize-1: offset bits cleared to form the tag
	fullMask uint64    // way mask with every way admitted
	availAll uint16    // fullMask truncated to the 16 possible ways
	tags     []uint64  // sets*ways, row-major by set; invalidTag = empty
	meta     []setMeta // one per set
	pinMask  uint64    // Arm lockdown: ways excluded from normal fills
	// nvalid counts the valid lines. It moves at every valid-bit
	// transition and is re-derived on decode (never encoded), so an
	// empty private cache answers a back-invalidation probe at once.
	nvalid int
	// aliases and aliasSets are InvalidateTag's search geometry: the
	// number of sets a physical tag may index (more than one only for a
	// virtually indexed cache spanning more than a page per way) and
	// the set distance between them (a power of two, so the base set
	// is a mask).
	aliases   int
	aliasSets int
}

// New builds a cache from cfg. It panics on a non-power-of-two geometry,
// which would silently break set indexing, and on more than 16 ways,
// which would not fit the per-set LRU stack.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a positive power of two", cfg.Name, sets))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if cfg.Ways > 16 {
		panic(fmt.Sprintf("cache %s: %d ways exceed the 16-way LRU stack", cfg.Name, cfg.Ways))
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(sets - 1),
		lineMask: uint64(cfg.LineSize - 1),
		fullMask: uint64(1)<<uint(cfg.Ways) - 1,
		tags:     make([]uint64, sets*cfg.Ways),
		meta:     make([]setMeta, sets),
	}
	c.availAll = uint16(c.fullMask)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	stack := lruInit(cfg.Ways)
	for i := range c.meta {
		c.meta[i].lru = stack
	}
	for c.cfg.LineSize>>c.lineBits > 1 {
		c.lineBits++
	}
	c.aliases = 1
	if cfg.Virtual {
		if span := sets * cfg.LineSize; span > pageSize {
			c.aliases = span / pageSize
		}
	}
	c.aliasSets = sets / c.aliases
	return c
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// SetOf returns the set index selected by addr.
func (c *Cache) SetOf(addr uint64) int {
	return int((addr >> c.lineBits) & c.setMask)
}

// lineAddr truncates addr to line granularity.
func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr &^ c.lineMask
}

// AllWays is the way mask admitting every way (no partitioning).
const AllWays = ^uint64(0)

// PinWays reserves the masked ways from normal replacement — the Arm
// L1 lockdown feature (§2.3) that StealthMem-style designs use to hold
// secrets in "safe" on-chip memory: content placed there with FillPinned
// cannot be evicted by an adversary's conflicting accesses. Note that
// explicit flushes (Flush, FlushMatching) still clear pinned lines, as
// the hardware's set/way maintenance operations do.
func (c *Cache) PinWays(mask uint64) {
	// Keep at least one way available for normal fills.
	full := uint64(1)<<uint(c.cfg.Ways) - 1
	if mask&full == full {
		mask &= full >> 1
	}
	c.pinMask = mask & full
}

// PinnedWays returns the current lockdown mask.
func (c *Cache) PinnedWays() uint64 { return c.pinMask }

// normalMask is the way mask ordinary fills may allocate into.
func (c *Cache) normalMask() uint64 {
	if c.pinMask == 0 {
		return AllWays
	}
	return ^c.pinMask
}

// FillPinned installs a line into the locked-down ways, where normal
// traffic cannot displace it.
func (c *Cache) FillPinned(indexAddr, tagAddr uint64) Eviction {
	if c.pinMask == 0 {
		return Eviction{}
	}
	return c.FillMasked(indexAddr, tagAddr, false, c.pinMask)
}

// Access performs a load or store. indexAddr selects the set (virtual
// address for virtually indexed caches, physical otherwise); tagAddr is
// the physical line address used as the tag, so aliasing behaves like a
// VIPT cache. It returns whether the access hit and, on a miss, the line
// evicted by the fill.
func (c *Cache) Access(indexAddr, tagAddr uint64, write bool) (hit bool, ev Eviction) {
	return c.AccessMasked(indexAddr, tagAddr, write, c.normalMask())
}

// AccessMasked is Access under a CAT-style way mask: hits are honoured
// in any way (Intel CAT restricts allocation, not lookup), but the fill
// victim is chosen only among ways whose mask bit is set. This is the
// way-based LLC partitioning of §2.3 (CATalyst).
func (c *Cache) AccessMasked(indexAddr, tagAddr uint64, write bool, wayMask uint64) (hit bool, ev Eviction) {
	return c.touch(indexAddr, tagAddr, write, wayMask)
}

// touch is the shared hot path of Access and Fill: one tag-match scan of
// the set and, on a miss, an LRU fill restricted to wayMask. mark sets
// the dirty bit (a store, or an already-dirty fill).
func (c *Cache) touch(indexAddr, tagAddr uint64, mark bool, wayMask uint64) (hit bool, ev Eviction) {
	set := int((indexAddr >> c.lineBits) & c.setMask)
	tag := tagAddr &^ c.lineMask
	nways := c.cfg.Ways
	base := set * nways
	tags := c.tags[base : base+nways : base+nways]
	for i := range tags {
		if tags[i] == tag {
			m := &c.meta[set]
			m.lru = lruToFront(m.lru, i)
			if mark {
				m.dirty |= 1 << uint(i)
			}
			return true, Eviction{}
		}
	}
	return false, c.fill(set, tag, mark, wayMask)
}

// fill installs the line-aligned tag into set after a failed tag match,
// restricted to wayMask. The victim is the lowest-indexed invalid
// admitted way, else the least recently used admitted way from the
// nibble stack — exactly the line the former minimum-stamp scan would
// have chosen, without the scan.
func (c *Cache) fill(set int, tag uint64, mark bool, wayMask uint64) (ev Eviction) {
	nways := c.cfg.Ways
	m := &c.meta[set]
	avail := uint16(wayMask) & c.availAll
	victim := -1
	if inv := avail &^ m.valid; inv != 0 {
		victim = bits.TrailingZeros16(inv)
	} else if avail == c.availAll {
		victim = int(m.lru>>(uint(nways-1)*4)) & 0xF
	} else if avail != 0 {
		lru := m.lru
		for p := nways - 1; p >= 0; p-- {
			if w := int(lru>>(uint(p)*4)) & 0xF; avail&(1<<uint(w)) != 0 {
				victim = w
				break
			}
		}
	}
	if victim < 0 {
		// Degenerate empty mask: the line is not cached at all.
		return Eviction{}
	}
	bit := uint16(1) << uint(victim)
	i := set*nways + victim
	if m.valid&bit != 0 {
		ev = Eviction{Tag: c.tags[i], Valid: true, Dirty: m.dirty&bit != 0}
	} else {
		c.nvalid++
	}
	c.tags[i] = tag
	m.valid |= bit
	if mark {
		m.dirty |= bit
	} else {
		m.dirty &^= bit
	}
	m.lru = lruToFront(m.lru, victim)
	return ev
}

// Fill inserts a line without reporting a hit (used by prefetchers and
// by write-backs allocating into a lower level).
func (c *Cache) Fill(indexAddr, tagAddr uint64, dirty bool) (ev Eviction) {
	return c.FillMasked(indexAddr, tagAddr, dirty, c.normalMask())
}

// FillMasked is Fill under a CAT-style way mask.
func (c *Cache) FillMasked(indexAddr, tagAddr uint64, dirty bool, wayMask uint64) (ev Eviction) {
	_, ev = c.touch(indexAddr, tagAddr, dirty, wayMask)
	return ev
}

// Contains reports whether the line addressed by (indexAddr, tagAddr)
// is resident, without perturbing LRU state. Intended for tests and
// assertions.
func (c *Cache) Contains(indexAddr, tagAddr uint64) bool {
	set := c.SetOf(indexAddr)
	tag := c.lineAddr(tagAddr)
	base := set * c.cfg.Ways
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.tags[i] == tag {
			return true
		}
	}
	return false
}

// ValidLines returns the number of valid lines (tests, occupancy checks),
// counted from the per-set masks rather than read from the running
// count, so tests can hold one against the other.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.meta {
		n += bits.OnesCount16(c.meta[i].valid)
	}
	return n
}

// DirtyLines returns the number of dirty lines currently resident. The
// flush cost of a write-back cache is a function of this value, which is
// precisely what the cache-flush channel (paper §5.3.4) modulates.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.meta {
		n += bits.OnesCount16(c.meta[i].dirty)
	}
	return n
}

// SetOccupancy returns the number of valid lines in one set.
func (c *Cache) SetOccupancy(set int) int {
	return bits.OnesCount16(c.meta[set].valid)
}

// Flush invalidates the whole cache, returning the number of lines that
// were valid and how many of those were dirty (and thus written back).
//
// The walk is occupancy-proportional rather than capacity-proportional:
// an invalid way always holds invalidTag (every invalidation path writes
// it), and a dirty bit implies the valid bit, so an empty set needs at
// most its LRU stack restored (InvalidateTag clears valid bits without
// resetting the stack). A mostly-empty LLC — the common case between
// domain switches — flushes in a scan of the per-set metadata instead of
// a rewrite of the whole tag array. The post-flush state is bit-for-bit
// the same as a full rewrite, so snapshots and the differential suite
// cannot tell the difference.
func (c *Cache) Flush() (valid, dirty int) {
	stack := lruInit(c.cfg.Ways)
	nways := c.cfg.Ways
	for set := range c.meta {
		m := &c.meta[set]
		if m.valid == 0 {
			if m.lru != stack {
				m.lru = stack
			}
			continue
		}
		valid += bits.OnesCount16(m.valid)
		dirty += bits.OnesCount16(m.dirty)
		base := set * nways
		tags := c.tags[base : base+nways]
		for v := m.valid; v != 0; v &= v - 1 {
			tags[bits.TrailingZeros16(v)] = invalidTag
		}
		*m = setMeta{lru: stack}
	}
	c.nvalid = 0
	return valid, dirty
}

// pageSize is the system page size, used to derive which index bits of a
// virtually indexed cache are physical (page-offset) bits.
const pageSize = 4096

// InvalidateTag removes the line with the given physical tag, returning
// whether it was present. For virtually indexed caches larger than
// page-size-per-way, every alias set is searched (the index bits above
// the page offset are unknown to a physical back-invalidation). This is
// the mechanism behind an inclusive LLC: evicting a line there must
// evict it from the private levels too. Most such probes land on idle
// cores' private caches, which hold nothing, so an empty cache answers
// without looking at a set.
func (c *Cache) InvalidateTag(tagAddr uint64) bool {
	if c.nvalid == 0 {
		return false
	}
	return c.invalidate(tagAddr)
}

// invalidate is InvalidateTag's search of a non-empty cache, kept out
// of line so the empty-cache test inlines into every caller.
func (c *Cache) invalidate(tagAddr uint64) bool {
	tag := c.lineAddr(tagAddr)
	baseSet := c.SetOf(tagAddr) & (c.aliasSets - 1)
	found := false
	for a := 0; a < c.aliases; a++ {
		set := baseSet + a*c.aliasSets
		base := set * c.cfg.Ways
		tags := c.tags[base : base+c.cfg.Ways]
		for i := range tags {
			if tags[i] == tag {
				tags[i] = invalidTag
				bit := uint16(1) << uint(i)
				c.meta[set].valid &^= bit
				c.meta[set].dirty &^= bit
				c.nvalid--
				found = true
			}
		}
	}
	return found
}

// VisitLines calls fn for every valid line (inspection tooling). The
// callback must not mutate the cache.
func (c *Cache) VisitLines(fn func(tag uint64, dirty bool)) {
	for set := range c.meta {
		m := &c.meta[set]
		base := set * c.cfg.Ways
		for v := m.valid; v != 0; v &= v - 1 {
			i := bits.TrailingZeros16(v)
			fn(c.tags[base+i], m.dirty&(1<<uint(i)) != 0)
		}
	}
}

// FlushMatching invalidates all lines whose tag satisfies keep==false
// under the provided predicate, returning valid/dirty counts of the
// flushed lines. Used for selective invalidation in tests.
func (c *Cache) FlushMatching(drop func(tag uint64) bool) (valid, dirty int) {
	for set := range c.meta {
		m := &c.meta[set]
		base := set * c.cfg.Ways
		for v := m.valid; v != 0; v &= v - 1 {
			i := bits.TrailingZeros16(v)
			if !drop(c.tags[base+i]) {
				continue
			}
			valid++
			bit := uint16(1) << uint(i)
			if m.dirty&bit != 0 {
				dirty++
			}
			c.tags[base+i] = invalidTag
			m.valid &^= bit
			m.dirty &^= bit
		}
	}
	c.nvalid -= valid
	return valid, dirty
}
