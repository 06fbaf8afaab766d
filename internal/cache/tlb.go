package cache

// TLBConfig describes one translation look-aside buffer.
type TLBConfig struct {
	Name    string
	Entries int // total entries, power of two
	Ways    int // associativity, power of two
}

// Sets returns the number of TLB sets.
func (c TLBConfig) Sets() int { return c.Entries / c.Ways }

type tlbEntry struct {
	vpn    uint64
	asid   uint16
	stamp  uint64
	valid  bool
	global bool // survives per-address-space flushes (kernel global mappings)
}

// TLB models a set-associative translation cache. Entries are tagged
// with an address-space identifier unless marked global. The global bit
// is what distinguishes the paper's "original" kernel (kernel mappings
// global, shared by all address spaces) from the colour-ready kernel
// (per-kernel mappings, one TLB entry per ASID) — the source of the Arm
// IPC slowdown in Table 5.
type TLB struct {
	cfg     TLBConfig
	sets    int
	setMask uint64
	entries []tlbEntry
	tick    uint64
}

// NewTLB builds a TLB from cfg, panicking on non-power-of-two geometry.
func NewTLB(cfg TLBConfig) *TLB {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("tlb " + cfg.Name + ": set count not a positive power of two")
	}
	return &TLB{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		entries: make([]tlbEntry, cfg.Entries),
	}
}

// Config returns the TLB geometry.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Sets returns the number of sets.
func (t *TLB) Sets() int { return t.sets }

func (t *TLB) setOf(vpn uint64) int { return int(vpn & t.setMask) }

// find returns the index of the entry translating (vpn, asid), or -1,
// without touching any state. Global entries match any ASID.
func (t *TLB) find(vpn uint64, asid uint16) int {
	base := t.setOf(vpn) * t.cfg.Ways
	for i := base; i < base+t.cfg.Ways; i++ {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn && (e.global || e.asid == asid) {
			return i
		}
	}
	return -1
}

// hit commits a lookup that matched entry i: the LRU tick and stamp.
func (t *TLB) hit(i int) {
	t.tick++
	t.entries[i].stamp = t.tick
}

// Lookup reports whether (vpn, asid) is present, updating LRU state.
// Global entries match any ASID.
func (t *TLB) Lookup(vpn uint64, asid uint16) bool {
	if i := t.find(vpn, asid); i >= 0 {
		t.hit(i)
		return true
	}
	t.tick++
	return false
}

// Insert installs a translation, evicting the set's LRU entry if needed.
func (t *TLB) Insert(vpn uint64, asid uint16, global bool) {
	t.tick++
	base := t.setOf(vpn) * t.cfg.Ways
	victim := base
	var victimStamp uint64 = ^uint64(0)
	for i := base; i < base+t.cfg.Ways; i++ {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn && (e.global || e.asid == asid) {
			e.stamp = t.tick
			return
		}
		if !e.valid {
			victim = i
			victimStamp = 0
		} else if e.stamp < victimStamp {
			victim = i
			victimStamp = e.stamp
		}
	}
	t.entries[victim] = tlbEntry{vpn: vpn, asid: asid, stamp: t.tick, valid: true, global: global}
}

// Contains reports residency without touching LRU state (tests).
func (t *TLB) Contains(vpn uint64, asid uint16) bool { return t.find(vpn, asid) >= 0 }

// FlushAll invalidates every entry; if keepGlobal is true, global
// mappings survive (the behaviour of a non-PCID TLB flush on x86, or of
// TLBIASID on Arm). Returns the number of entries dropped.
func (t *TLB) FlushAll(keepGlobal bool) int {
	if !keepGlobal {
		// Invalid entries are already zero (every invalidation writes the
		// zero entry), so a count followed by a block clear reproduces the
		// per-entry walk exactly, and an already-empty TLB costs no writes.
		n := 0
		for i := range t.entries {
			if t.entries[i].valid {
				n++
			}
		}
		if n != 0 {
			for i := range t.entries {
				t.entries[i] = tlbEntry{}
			}
		}
		return n
	}
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.global {
			*e = tlbEntry{}
			n++
		}
	}
	return n
}

// ValidEntries returns the number of valid entries (tests).
func (t *TLB) ValidEntries() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}
