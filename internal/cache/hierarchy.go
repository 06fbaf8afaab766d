package cache

import "timeprotection/internal/trace"

// HierarchyConfig describes a full per-machine cache hierarchy.
type HierarchyConfig struct {
	Cores     int
	L1D, L1I  Config
	L2        Config
	L2Private bool   // true: one L2 per core (x86); false: shared L2 (Arm Sabre)
	L3        Config // Size == 0 means no L3 (Arm)

	ITLB, DTLB, L2TLB TLBConfig
	BTB               BTBConfig
	BHB               BHBConfig
	DataPrefetch      PrefetcherConfig

	MemLatency       int // cycles for a fill from DRAM
	WritebackLatency int // cycles charged per dirty-line write-back on the demand path
	L2TLBHitLatency  int // extra cycles when the translation hits only in the L2 TLB

	// MemJitter adds 0..MemJitter-1 cycles of deterministic pseudo-random
	// noise to each DRAM access, modelling refresh/bus arbitration
	// variability. Real timing measurements are noisy; without this the
	// simulator has infinite SNR and the millibit-level MI methodology
	// of §5.1 would have nothing to reject. Zero disables jitter.
	MemJitter int

	// SMTPairs models hyperthreading: Cores must be even, and logical
	// core i shares ALL on-core state (L1s, TLBs, predictors, private
	// L2, prefetcher) with its sibling i + Cores/2. Sharing is by
	// aliasing, which is the whole point: there is nothing time
	// protection can flush or partition between concurrently executing
	// hyperthreads (paper §3.1.2 — these channels are inherent).
	SMTPairs bool

	// DRAM enables the row-buffer model (§2.2 lists DRAM row buffers
	// among the stateful shared resources). Zero Banks disables it; the
	// stock platforms leave it off so the calibrated experiments keep
	// their latency model, and the DRAMA-style channel study enables it
	// explicitly.
	DRAM DRAMConfig
}

// DRAMConfig describes the row-buffer model.
type DRAMConfig struct {
	Banks        int // open-row buffers (0 disables the model)
	RowBytes     int // row size
	RowMissExtra int // extra cycles when the access closes/opens a row
}

// DRAMState tracks each bank's open row. It is machine-global and
// nothing architected ever resets it — like the interconnect, it is
// beyond time protection's reach on current hardware.
type DRAMState struct {
	cfg  DRAMConfig
	rows []uint64
	open []bool
}

// Bank hashes physical address bits into a bank index. Real DDR bank
// functions XOR several address ranges, which is exactly why page
// colouring cannot partition banks (the DRAMA observation).
func (d *DRAMState) Bank(paddr uint64) int {
	r := paddr / uint64(d.cfg.RowBytes)
	return int((r ^ (r >> 4)) % uint64(d.cfg.Banks))
}

// access opens paddr's row and returns the extra latency and whether
// the row was already open.
func (d *DRAMState) access(paddr uint64) (extra int, rowHit bool) {
	bank := d.Bank(paddr)
	row := paddr / uint64(d.cfg.RowBytes)
	if d.open[bank] && d.rows[bank] == row {
		return 0, true
	}
	d.rows[bank] = row
	d.open[bank] = true
	return d.cfg.RowMissExtra, false
}

// Hierarchy owns all microarchitectural state of a machine: per-core L1s,
// TLBs and predictors, private or shared L2, optional shared L3, and the
// per-core data prefetchers whose hidden state the paper's residual x86
// L2 channel exploits. All methods are single-threaded and deterministic.
type Hierarchy struct {
	cfg HierarchyConfig

	l1d, l1i []*Cache
	l2       []*Cache
	l3       *Cache

	itlb, dtlb, l2tlb []*TLB
	btb               []*BTB
	bhb               []*BHB
	dpf               []*Prefetcher

	// iPrevLine is per-core next-line instruction-prefetch state. It is
	// tiny, never architected, and not disableable — the model of the
	// instruction prefetcher the paper could not switch off (§5.3.2).
	iPrevLine []uint64

	// rngState drives the deterministic DRAM jitter (xorshift64).
	rngState uint64

	// MemHook, when set, is invoked for every access that reaches DRAM
	// and returns extra cycles — the attachment point for interconnect
	// (bus contention) models. Nil means an uncontended memory system.
	MemHook func(core int) int

	// llcMask is the per-core CAT class-of-service way mask applied to
	// LLC allocations (lookups are unrestricted, as on Intel CAT).
	llcMask []uint64

	// dram is the optional row-buffer model (nil when disabled).
	dram *DRAMState

	// sink is the observability sink; nil (the default) disables all
	// instrumentation, leaving one predicted branch per site.
	// sinkEvents caches sink.EventsEnabled() so counter-only sinks skip
	// event construction entirely on the access path.
	sink       *trace.Sink
	sinkEvents bool
}

// SetTracer attaches (or, with nil, detaches) the observability sink.
func (h *Hierarchy) SetTracer(s *trace.Sink) {
	h.sink = s
	h.sinkEvents = s.EventsEnabled()
}

// Tracer returns the attached sink (nil when tracing is disabled).
func (h *Hierarchy) Tracer() *trace.Sink { return h.sink }

// DRAM returns the row-buffer state (nil when the model is disabled).
func (h *Hierarchy) DRAM() *DRAMState { return h.dram }

// SetLLCPartition assigns core's CAT way mask for LLC allocation (the
// §2.3 way-based partitioning; CATalyst builds on it). AllWays restores
// the unpartitioned default.
func (h *Hierarchy) SetLLCPartition(core int, mask uint64) {
	h.llcMask[core] = mask
}

// LLCPartition returns core's current way mask.
func (h *Hierarchy) LLCPartition(core int) uint64 { return h.llcMask[core] }

// jitter returns the next DRAM-latency perturbation.
func (h *Hierarchy) jitter() int {
	if h.cfg.MemJitter <= 0 {
		return 0
	}
	x := h.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.rngState = x
	return int(x % uint64(h.cfg.MemJitter))
}

// NewHierarchy constructs the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{cfg: cfg}
	n := cfg.Cores
	if cfg.SMTPairs {
		if n%2 != 0 {
			panic("hierarchy: SMTPairs requires an even core count")
		}
		n = n / 2 // build physical cores, then alias the siblings
	}
	for i := 0; i < n; i++ {
		h.l1d = append(h.l1d, New(cfg.L1D))
		h.l1i = append(h.l1i, New(cfg.L1I))
		h.itlb = append(h.itlb, NewTLB(cfg.ITLB))
		h.dtlb = append(h.dtlb, NewTLB(cfg.DTLB))
		h.l2tlb = append(h.l2tlb, NewTLB(cfg.L2TLB))
		h.btb = append(h.btb, NewBTB(cfg.BTB))
		h.bhb = append(h.bhb, NewBHB(cfg.BHB))
		h.dpf = append(h.dpf, NewPrefetcher(cfg.DataPrefetch))
	}
	if cfg.L2Private {
		for i := 0; i < n; i++ {
			h.l2 = append(h.l2, New(cfg.L2))
		}
	} else {
		h.l2 = []*Cache{New(cfg.L2)}
	}
	if cfg.L3.Size > 0 {
		h.l3 = New(cfg.L3)
	}
	if cfg.SMTPairs {
		// Alias logical core n+i onto physical core i: hyperthreads
		// time-share nothing — they share everything, concurrently.
		for i := 0; i < n; i++ {
			h.l1d = append(h.l1d, h.l1d[i])
			h.l1i = append(h.l1i, h.l1i[i])
			h.itlb = append(h.itlb, h.itlb[i])
			h.dtlb = append(h.dtlb, h.dtlb[i])
			h.l2tlb = append(h.l2tlb, h.l2tlb[i])
			h.btb = append(h.btb, h.btb[i])
			h.bhb = append(h.bhb, h.bhb[i])
			h.dpf = append(h.dpf, h.dpf[i])
			if cfg.L2Private {
				h.l2 = append(h.l2, h.l2[i])
			}
		}
		n = cfg.Cores
	}
	h.iPrevLine = make([]uint64, n)
	h.llcMask = make([]uint64, n)
	for i := range h.llcMask {
		h.llcMask[i] = AllWays
	}
	h.rngState = 0x9E3779B97F4A7C15
	if cfg.DRAM.Banks > 0 {
		h.dram = &DRAMState{
			cfg:  cfg.DRAM,
			rows: make([]uint64, cfg.DRAM.Banks),
			open: make([]bool, cfg.DRAM.Banks),
		}
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L2For returns the L2 cache serving the given core.
func (h *Hierarchy) L2For(core int) *Cache {
	if h.cfg.L2Private {
		return h.l2[core]
	}
	return h.l2[0]
}

// L1D returns core's L1 data cache.
func (h *Hierarchy) L1D(core int) *Cache { return h.l1d[core] }

// L1I returns core's L1 instruction cache.
func (h *Hierarchy) L1I(core int) *Cache { return h.l1i[core] }

// L3 returns the shared L3, or nil when the platform has none.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// LLC returns the last-level cache: L3 where present, else the shared L2.
func (h *Hierarchy) LLC() *Cache {
	if h.l3 != nil {
		return h.l3
	}
	return h.l2[0]
}

// ITLBOf returns core's instruction TLB.
func (h *Hierarchy) ITLBOf(core int) *TLB { return h.itlb[core] }

// DTLBOf returns core's data TLB.
func (h *Hierarchy) DTLBOf(core int) *TLB { return h.dtlb[core] }

// L2TLBOf returns core's unified second-level TLB.
func (h *Hierarchy) L2TLBOf(core int) *TLB { return h.l2tlb[core] }

// BTBOf returns core's branch target buffer.
func (h *Hierarchy) BTBOf(core int) *BTB { return h.btb[core] }

// BHBOf returns core's branch history predictor.
func (h *Hierarchy) BHBOf(core int) *BHB { return h.bhb[core] }

// PrefetcherOf returns core's data prefetcher.
func (h *Hierarchy) PrefetcherOf(core int) *Prefetcher { return h.dpf[core] }

// MemLatency returns the DRAM fill latency in cycles.
func (h *Hierarchy) MemLatency() int { return h.cfg.MemLatency }

// Data performs a load (write=false) or store (write=true) and returns
// the cycles consumed by the cache side of the access (TLB handling is
// the machine layer's job, since it owns page tables).
func (h *Hierarchy) Data(core int, vaddr, paddr uint64, write bool) int {
	return h.access(core, vaddr, paddr, write, false)
}

// Fetch performs an instruction fetch.
func (h *Hierarchy) Fetch(core int, vaddr, paddr uint64) int {
	return h.access(core, vaddr, paddr, false, true)
}

func (h *Hierarchy) access(core int, vaddr, paddr uint64, write, ifetch bool) int {
	l1 := h.l1d[core]
	l1u := trace.UnitL1D
	if ifetch {
		l1 = h.l1i[core]
		l1u = trace.UnitL1I
	}
	idx := paddr
	if l1.cfg.Virtual {
		idx = vaddr
	}
	hit, ev := l1.Access(idx, paddr, write)
	return h.afterL1(core, l1, l1u, hit, ev, paddr, ifetch)
}

// afterL1 finishes a demand access whose L1 outcome is known — hit, or
// miss with ev the line the L1 fill displaced: it records the outcome,
// writes back a dirty victim, and on a miss walks the lower levels. It
// returns the cycles of the whole cache side of the access.
func (h *Hierarchy) afterL1(core int, l1 *Cache, l1u trace.Unit, hit bool, ev Eviction, paddr uint64, ifetch bool) int {
	cycles := l1.cfg.HitLatency
	if h.sink != nil {
		h.observe(core, l1u, l1, hit, ev, paddr, l1.cfg.HitLatency)
	}
	if ev.Valid && ev.Dirty {
		cycles += h.cfg.WritebackLatency
		if h.sink != nil {
			h.sink.Unit(l1u).Writebacks++
			h.sink.Unit(l1u).WritebackCycles += uint64(h.cfg.WritebackLatency)
			if h.sinkEvents {
				h.sink.Emit(core, trace.CacheWriteback, l1u, ev.Tag, 0)
			}
		}
		h.fillLower(core, ev.Tag, true)
	}
	if hit {
		return cycles
	}
	l2 := h.L2For(core)
	if !ifetch {
		// The data prefetcher snoops demand accesses that missed the L1.
		for _, pa := range h.dpf[core].OnAccess(paddr) {
			evp := l2.FillMasked(pa, pa, false, h.maskFor(core, l2))
			if h.sink != nil {
				h.sink.Unit(trace.UnitPrefetch).Issues++
				h.fillEvent(core, trace.UnitL2, trace.PrefetchIssue, pa, evp)
			}
			h.llcCheck(evp, l2)
			if evp.Valid && evp.Dirty && h.l3 != nil {
				// A prefetch fill displacing a dirty line still has to
				// write it back.
				evw := h.l3.FillMasked(evp.Tag, evp.Tag, true, h.llcMask[core])
				if h.sink != nil {
					h.fillEvent(core, trace.UnitL3, trace.CacheWriteback, evp.Tag, evw)
				}
				h.llcCheck(evw, h.l3)
			}
			if h.l3 != nil {
				evp3 := h.l3.FillMasked(pa, pa, false, h.llcMask[core])
				if h.sink != nil {
					h.fillEvent(core, trace.UnitL3, trace.PrefetchIssue, pa, evp3)
				}
				h.llcCheck(evp3, h.l3)
			}
		}
	}
	cycles += l2.cfg.HitLatency
	hit2, ev2 := l2.AccessMasked(paddr, paddr, false, h.maskFor(core, l2))
	if h.sink != nil {
		h.observe(core, trace.UnitL2, l2, hit2, ev2, paddr, l2.cfg.HitLatency)
	}
	h.llcCheck(ev2, l2)
	if ev2.Valid && ev2.Dirty {
		cycles += h.cfg.WritebackLatency
		if h.sink != nil {
			h.sink.Unit(trace.UnitL2).Writebacks++
			h.sink.Unit(trace.UnitL2).WritebackCycles += uint64(h.cfg.WritebackLatency)
		}
		if h.l3 != nil {
			evw := h.l3.FillMasked(ev2.Tag, ev2.Tag, true, h.llcMask[core])
			if h.sink != nil {
				h.fillEvent(core, trace.UnitL3, trace.CacheWriteback, ev2.Tag, evw)
			}
			h.llcCheck(evw, h.l3)
		}
	}
	if !hit2 && ifetch {
		h.instructionPrefetch(core, paddr)
	}
	if hit2 {
		return cycles
	}
	if h.l3 != nil {
		cycles += h.l3.cfg.HitLatency
		hit3, ev3 := h.l3.AccessMasked(paddr, paddr, false, h.llcMask[core])
		if h.sink != nil {
			h.observe(core, trace.UnitL3, h.l3, hit3, ev3, paddr, h.l3.cfg.HitLatency)
		}
		h.llcCheck(ev3, h.l3)
		if ev3.Valid && ev3.Dirty {
			cycles += h.cfg.WritebackLatency
			if h.sink != nil {
				h.sink.Unit(trace.UnitL3).Writebacks++
				h.sink.Unit(trace.UnitL3).WritebackCycles += uint64(h.cfg.WritebackLatency)
			}
		}
		if hit3 {
			return cycles
		}
	}
	mem := h.cfg.MemLatency + h.jitter()
	if h.dram != nil {
		extra, rowHit := h.dram.access(paddr)
		mem += extra
		if h.sink != nil {
			d := h.sink.Unit(trace.UnitDRAM)
			d.Accesses++
			if rowHit {
				d.Hits++
				if h.sinkEvents {
					h.sink.Emit(core, trace.DRAMRowHit, trace.UnitDRAM, paddr, 0)
				}
			} else {
				d.Misses++
				if h.sinkEvents {
					h.sink.Emit(core, trace.DRAMRowMiss, trace.UnitDRAM, paddr, 0)
				}
			}
		}
	} else if h.sink != nil {
		h.sink.Unit(trace.UnitDRAM).Accesses++
	}
	cycles += mem
	if h.sink != nil {
		h.sink.Unit(trace.UnitDRAM).Cycles += uint64(mem)
	}
	if h.MemHook != nil {
		stall := h.MemHook(core)
		cycles += stall
		if h.sink != nil && stall > 0 {
			h.sink.Unit(trace.UnitBus).Issues++
			h.sink.Unit(trace.UnitBus).Cycles += uint64(stall)
			if h.sinkEvents {
				h.sink.Emit(core, trace.BusStall, trace.UnitBus, paddr, uint64(stall))
			}
		}
	}
	return cycles
}

// AccessFast performs one user memory access whose translation hits
// the first-level TLB, in a single pass over the TLB set and the L1
// set. It commits exactly the state transitions and trace output of the
// TLBLevel-then-Data/Fetch path for that case (TLB tick and stamp, the
// TLBHit event ahead of every cache event, then the L1 access). An L1
// hit commits in place; an L1 miss fills from the set already scanned
// and continues down the hierarchy, so a miss-heavy stream never scans
// a set twice.
//
// hint, when not negative, is the entry index an earlier call returned
// for the same core, vpn and asid with no TLB operation in between: the
// entry is known to match, so the TLB set is not scanned again. The
// batch walk in the hw layer passes it for consecutive accesses to one
// page. ent is the matching first-level entry, or -1 when the TLB
// missed; then nothing was touched and the caller must run the full
// path (translation cost, then Data or Fetch) from scratch.
func (h *Hierarchy) AccessFast(core, hint int, vpn uint64, asid uint16, vaddr, paddr uint64, write, ifetch bool) (cycles, ent int) {
	tlb := h.dtlb[core]
	l1 := h.l1d[core]
	l1u, tu := trace.UnitL1D, trace.UnitDTLB
	if ifetch {
		tlb = h.itlb[core]
		l1 = h.l1i[core]
		l1u, tu = trace.UnitL1I, trace.UnitITLB
	}
	ent = hint
	if ent < 0 {
		if ent = tlb.find(vpn, asid); ent < 0 {
			return 0, -1
		}
	}
	tlb.hit(ent)
	if h.sink != nil {
		ts := h.sink.Unit(tu)
		ts.Accesses++
		ts.Hits++
		if h.sinkEvents {
			h.sink.Emit(core, trace.TLBHit, tu, vpn, 0)
		}
	}
	idx := paddr
	if l1.cfg.Virtual {
		idx = vaddr
	}
	set := int((idx >> l1.lineBits) & l1.setMask)
	tag := paddr &^ l1.lineMask
	base := set * l1.cfg.Ways
	tags := l1.tags[base : base+l1.cfg.Ways : base+l1.cfg.Ways]
	for way := range tags {
		if tags[way] != tag {
			continue
		}
		m := &l1.meta[set]
		m.lru = lruToFront(m.lru, way)
		if write {
			m.dirty |= 1 << uint(way)
		}
		if h.sink != nil {
			st := h.sink.Unit(l1u)
			st.Accesses++
			st.Cycles += uint64(l1.cfg.HitLatency)
			st.Hits++
			if h.sinkEvents {
				h.sink.Emit(core, trace.CacheHit, l1u, tag, 0)
			}
		}
		return l1.cfg.HitLatency, ent
	}
	ev := l1.fill(set, tag, write, l1.normalMask())
	return h.afterL1(core, l1, l1u, false, ev, paddr, ifetch), ent
}

// observe records one demand access outcome on unit u: the counters,
// the hit latency, and (when events are retained) the hit/miss event
// plus any eviction the access caused.
func (h *Hierarchy) observe(core int, u trace.Unit, c *Cache, hit bool, ev Eviction, paddr uint64, hitLatency int) {
	st := h.sink.Unit(u)
	st.Accesses++
	st.Cycles += uint64(hitLatency)
	if hit {
		st.Hits++
	} else {
		st.Misses++
	}
	if ev.Valid {
		st.Evictions++
	}
	if !h.sinkEvents {
		return
	}
	kind := trace.CacheMiss
	if hit {
		kind = trace.CacheHit
	}
	h.sink.Emit(core, kind, u, c.lineAddr(paddr), 0)
	if ev.Valid {
		var dirty uint64
		if ev.Dirty {
			dirty = 1
		}
		h.sink.Emit(core, trace.CacheEvict, u, ev.Tag, dirty)
	}
}

// fillEvent records a non-demand fill into unit u (a prefetch or a
// write-back install) and the eviction it displaced, so event replay
// sees every line the fill made hittable and every line it removed.
// Callers guard with h.sink != nil.
func (h *Hierarchy) fillEvent(core int, u trace.Unit, kind trace.Kind, addr uint64, ev Eviction) {
	if ev.Valid {
		h.sink.Unit(u).Evictions++
	}
	if !h.sinkEvents {
		return
	}
	h.sink.Emit(core, kind, u, addr, 0)
	if ev.Valid {
		var dirty uint64
		if ev.Dirty {
			dirty = 1
		}
		h.sink.Emit(core, trace.CacheEvict, u, ev.Tag, dirty)
	}
}

// llcCheck enforces LLC inclusivity: when the last-level cache evicts a
// line, the line is back-invalidated from every core's private levels.
// This is the property cross-core prime&probe attacks (Figure 4) rely
// on: the spy's LLC evictions remove the victim's lines from its private
// caches and vice versa.
func (h *Hierarchy) llcCheck(ev Eviction, from *Cache) {
	if !ev.Valid || from != h.LLC() {
		return
	}
	for c := 0; c < h.cfg.Cores; c++ {
		if h.l1d[c].InvalidateTag(ev.Tag) && h.sinkEvents {
			h.sink.Emit(c, trace.CacheEvict, trace.UnitL1D, ev.Tag, 0)
		}
		if h.l1i[c].InvalidateTag(ev.Tag) && h.sinkEvents {
			h.sink.Emit(c, trace.CacheEvict, trace.UnitL1I, ev.Tag, 0)
		}
		if h.cfg.L2Private {
			if h.l2[c].InvalidateTag(ev.Tag) && h.sinkEvents {
				h.sink.Emit(c, trace.CacheEvict, trace.UnitL2, ev.Tag, 0)
			}
		}
	}
}

// instructionPrefetch models a simple non-disableable next-line
// instruction prefetcher: a second consecutive L2 instruction miss pulls
// the following line into L2. Its one-word state survives every flush.
func (h *Hierarchy) instructionPrefetch(core int, paddr uint64) {
	lineSize := uint64(h.cfg.L2.LineSize)
	line := paddr / lineSize
	if h.iPrevLine[core]+1 == line {
		next := (line + 1) * lineSize
		l2 := h.L2For(core)
		evp := l2.FillMasked(next, next, false, h.maskFor(core, l2))
		if h.sink != nil {
			h.sink.Unit(trace.UnitPrefetch).Issues++
			h.fillEvent(core, trace.UnitL2, trace.PrefetchIssue, next, evp)
		}
		h.llcCheck(evp, l2)
		if h.l3 != nil {
			evp3 := h.l3.FillMasked(next, next, false, h.llcMask[core])
			if h.sink != nil {
				h.fillEvent(core, trace.UnitL3, trace.PrefetchIssue, next, evp3)
			}
			h.llcCheck(evp3, h.l3)
		}
	}
	h.iPrevLine[core] = line
}

// maskFor returns the CAT mask that applies to allocations into c by
// core: the per-core LLC mask when c is the last-level cache, AllWays
// otherwise (CAT partitions only the LLC).
func (h *Hierarchy) maskFor(core int, c *Cache) uint64 {
	if c == h.LLC() {
		return h.llcMask[core]
	}
	return AllWays
}

// fillLower installs a write-back from L1 into the next level down.
func (h *Hierarchy) fillLower(core int, lineTag uint64, dirty bool) {
	l2 := h.L2For(core)
	ev := l2.FillMasked(lineTag, lineTag, dirty, h.maskFor(core, l2))
	if h.sink != nil {
		h.fillEvent(core, trace.UnitL2, trace.CacheWriteback, lineTag, ev)
	}
	h.llcCheck(ev, l2)
	if ev.Valid && ev.Dirty && h.l3 != nil {
		evw := h.l3.FillMasked(ev.Tag, ev.Tag, true, h.llcMask[core])
		if h.sink != nil {
			h.fillEvent(core, trace.UnitL3, trace.CacheWriteback, ev.Tag, evw)
		}
		h.llcCheck(evw, h.l3)
	}
}

// TLB lookup results, ordered by cost.
const (
	TLBHitL1 = iota // hit in the first-level I/D TLB: free
	TLBHitL2        // hit in the unified L2 TLB: small extra latency
	TLBMiss         // full miss: the caller must walk the page table
)

// TLBLevel classifies a translation lookup for core. The caller charges
// latency and, on TLBMiss, performs the page-table walk through Data()
// and then calls TLBInsert.
func (h *Hierarchy) TLBLevel(core int, vpn uint64, asid uint16, ifetch bool) int {
	first := h.dtlb[core]
	u := trace.UnitDTLB
	if ifetch {
		first = h.itlb[core]
		u = trace.UnitITLB
	}
	if first.Lookup(vpn, asid) {
		if h.sink != nil {
			h.sink.Unit(u).Accesses++
			h.sink.Unit(u).Hits++
			if h.sinkEvents {
				h.sink.Emit(core, trace.TLBHit, u, vpn, 0)
			}
		}
		return TLBHitL1
	}
	if h.l2tlb[core].Lookup(vpn, asid) {
		// Promote into the first level.
		first.Insert(vpn, asid, false)
		if h.sink != nil {
			h.sink.Unit(u).Accesses++
			h.sink.Unit(u).Misses++
			l2t := h.sink.Unit(trace.UnitL2TLB)
			l2t.Accesses++
			l2t.Hits++
			l2t.Cycles += uint64(h.cfg.L2TLBHitLatency)
			if h.sinkEvents {
				h.sink.Emit(core, trace.TLBHitL2, u, vpn, 0)
			}
		}
		return TLBHitL2
	}
	if h.sink != nil {
		h.sink.Unit(u).Accesses++
		h.sink.Unit(u).Misses++
		l2t := h.sink.Unit(trace.UnitL2TLB)
		l2t.Accesses++
		l2t.Misses++
		if h.sinkEvents {
			h.sink.Emit(core, trace.TLBMiss, u, vpn, 0)
		}
	}
	return TLBMiss
}

// TLBInsert installs a completed translation into the first-level TLB
// and the unified L2 TLB.
func (h *Hierarchy) TLBInsert(core int, vpn uint64, asid uint16, global, ifetch bool) {
	first := h.dtlb[core]
	if ifetch {
		first = h.itlb[core]
	}
	first.Insert(vpn, asid, global)
	h.l2tlb[core].Insert(vpn, asid, global)
}

// TLBFlush invalidates core's TLBs; global entries survive when
// keepGlobal is set. Returns the total number of entries dropped.
func (h *Hierarchy) TLBFlush(core int, keepGlobal bool) int {
	ni := h.itlb[core].FlushAll(keepGlobal)
	nd := h.dtlb[core].FlushAll(keepGlobal)
	n2 := h.l2tlb[core].FlushAll(keepGlobal)
	if h.sink != nil {
		for _, fl := range [...]struct {
			u trace.Unit
			n int
		}{{trace.UnitITLB, ni}, {trace.UnitDTLB, nd}, {trace.UnitL2TLB, n2}} {
			st := h.sink.Unit(fl.u)
			st.Flushes++
			st.FlushedLines += uint64(fl.n)
			if h.sinkEvents {
				h.sink.Emit(core, trace.TLBFlush, fl.u, uint64(fl.n), 0)
			}
		}
	}
	return ni + nd + n2
}

// Branch resolves a taken/indirect branch through core's BTB.
func (h *Hierarchy) Branch(core int, pc, target uint64) int {
	p := h.btb[core].Branch(pc, target)
	if h.sink != nil {
		h.predictorEvent(core, trace.UnitBTB, pc, p)
	}
	return p
}

// CondBranch resolves a conditional branch through core's history
// predictor.
func (h *Hierarchy) CondBranch(core int, pc uint64, taken bool) int {
	p := h.bhb[core].CondBranch(pc, taken)
	if h.sink != nil {
		h.predictorEvent(core, trace.UnitBHB, pc, p)
	}
	return p
}

// predictorEvent records a branch prediction outcome; penalty 0 is a
// correct prediction, anything else a misprediction costing that many
// cycles. Callers guard with h.sink != nil.
func (h *Hierarchy) predictorEvent(core int, u trace.Unit, pc uint64, penalty int) {
	st := h.sink.Unit(u)
	st.Accesses++
	if penalty == 0 {
		st.Hits++
		if h.sinkEvents {
			h.sink.Emit(core, trace.BranchHit, u, pc, 0)
		}
		return
	}
	st.Misses++
	st.Cycles += uint64(penalty)
	if h.sinkEvents {
		h.sink.Emit(core, trace.BranchMiss, u, pc, uint64(penalty))
	}
}

// L2TLBHitLatency exposes the configured L2-TLB hit cost.
func (h *Hierarchy) L2TLBHitLatency() int { return h.cfg.L2TLBHitLatency }

// WritebackLatency exposes the configured write-back cost.
func (h *Hierarchy) WritebackLatency() int { return h.cfg.WritebackLatency }
