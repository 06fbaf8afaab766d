package hw

// MemoryBus models the stateless shared interconnect of paper §2.2:
// cores contend for finite memory bandwidth, and a core can sense how
// much bandwidth the others are consuming through its own access
// latency. Unlike the stateful resources, time protection has no handle
// on this channel — there is nothing to flush or colour — which is why
// the paper's threat model must exclude concurrent cross-core covert
// channels (§3.1) until hardware offers bandwidth partitioning.
//
// The model divides time into fixed windows; each DRAM access consumes
// one slot of the window's capacity, and accesses beyond capacity stall.
// An optional MBA-style throttle (§2.3 footnote: Intel's memory
// bandwidth allocation) imposes an *approximate* per-core limit — it
// delays a core once its recent usage exceeds the limit, but bursts
// within the enforcement lag still modulate the other core's latency,
// which is why the paper deems approximate enforcement insufficient for
// covert-channel prevention.
type MemoryBus struct {
	// WindowCycles is the arbitration window length.
	WindowCycles uint64
	// SlotsPerWindow is how many DRAM accesses fit in a window without
	// contention.
	SlotsPerWindow int
	// StallCycles is the extra latency per excess access in a window.
	StallCycles int

	// usage counts accesses per window ID. Keyed (rather than a single
	// rolling counter) because the simulator's cores advance their
	// clocks asynchronously, so accesses arrive out of global time
	// order; keyed accounting is order-independent.
	usage map[uint64]int
	// coreUsage counts per (window, core) for the MBA throttle.
	coreUsage map[uint64]map[int]int
	pruneMark uint64

	// Approximate per-core throttle (0 = unlimited): a core that used
	// more than Limit slots during the *previous* window is penalised on
	// each access in the current one (lagging enforcement).
	mbaLimit   int
	mbaPenalty int
}

// NewMemoryBus builds a bus with the given arbitration parameters.
func NewMemoryBus(windowCycles uint64, slots, stall int) *MemoryBus {
	return &MemoryBus{
		WindowCycles:   windowCycles,
		SlotsPerWindow: slots,
		StallCycles:    stall,
		usage:          make(map[uint64]int),
		coreUsage:      make(map[uint64]map[int]int),
	}
}

// SetMBA configures the approximate per-core bandwidth limit (slots per
// window) and the penalty applied while throttled. limit = 0 disables.
func (b *MemoryBus) SetMBA(limit, penalty int) {
	b.mbaLimit = limit
	b.mbaPenalty = penalty
}

// Access records one DRAM access by core at time now and returns the
// extra cycles of bus contention (and MBA throttling) it suffers.
func (b *MemoryBus) Access(core int, now uint64) int {
	if b == nil {
		return 0
	}
	w := now / b.WindowCycles
	b.usage[w]++
	cu := b.coreUsage[w]
	if cu == nil {
		cu = make(map[int]int)
		b.coreUsage[w] = cu
	}
	cu[core]++
	extra := 0
	if over := b.usage[w] - b.SlotsPerWindow; over > 0 {
		extra += b.StallCycles * over
	}
	if b.mbaLimit > 0 {
		// Enforcement is approximate: it reacts to the *previous*
		// window, so a bursty sender is penalised late and its bursts
		// still contend.
		if prev := b.coreUsage[w-1]; prev != nil && prev[core] > b.mbaLimit {
			extra += b.mbaPenalty
		}
	}
	// Prune bookkeeping for long-dead windows.
	if w > b.pruneMark+256 {
		for k := range b.usage {
			if k+128 < w {
				delete(b.usage, k)
				delete(b.coreUsage, k)
			}
		}
		b.pruneMark = w
	}
	return extra
}

// WindowUsage returns the access count recorded for the window covering
// time t (tests, utilisation probes).
func (b *MemoryBus) WindowUsage(t uint64) int {
	if b == nil {
		return 0
	}
	return b.usage[t/b.WindowCycles]
}
