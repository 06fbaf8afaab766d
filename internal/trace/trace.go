// Package trace is the simulator's observability layer: a structured
// event/counter subsystem threaded through every component that holds
// microarchitectural or kernel state. Components emit typed events
// (cache hit/miss/evict/write-back per level, TLB/BTB/BHB outcomes,
// prefetch issues, page walks, kernel switch phases, channel sample
// boundaries) into per-core ring buffers, and accumulate cheap
// monotonic per-unit counters that aggregate into a per-experiment
// cycle-accounting report.
//
// The layer is zero-overhead when disabled: every emitting component
// holds a *Sink that is nil by default, and each emission site is a
// single predictable `if sink != nil` branch. Recording consumes no
// simulated time and is never part of a machine's encoded state — it is
// harness instrumentation, not machine work. It is the simulator's only
// recorder: no simulated structure keeps counters or events of its own.
//
// Event replay is the basis of trace-driven testing: properties like
// "after a domain switch with a full flush, no domain ever hits a line
// last touched by another domain" become direct assertions over the
// event stream instead of inferences from end-to-end MI numbers.
package trace

import "fmt"

// Kind classifies a trace event.
type Kind uint8

// Event kinds. Cache-like kinds carry the physical line address in
// Addr; kernel kinds carry phase-specific detail in Addr/Arg.
const (
	KindNone Kind = iota

	// Cache-level outcomes (Unit says which cache).
	CacheHit
	CacheMiss
	CacheEvict     // Addr = evicted line, Arg = 1 if dirty
	CacheWriteback // Addr = line written back
	CacheFlush     // Addr = valid lines dropped, Arg = dirty lines

	// Translation outcomes (Unit = ITLB/DTLB; an L2-TLB hit is a
	// first-level miss that the unified level absorbed).
	TLBHit
	TLBHitL2
	TLBMiss
	TLBFlush // Addr = entries dropped
	PageWalk // Addr = vpn, Arg = walk cycles

	// Predictor outcomes (Unit = BTB/BHB; Arg = penalty cycles).
	BranchHit
	BranchMiss

	// Prefetch issues (Unit = the cache level filled; Addr = line).
	PrefetchIssue

	// Memory-system outcomes.
	DRAMRowHit
	DRAMRowMiss
	BusStall // Arg = stall cycles

	// Kernel switch phases (§4.3 steps) and lifecycle.
	KernelTick         // Addr = current domain
	KernelSwitch       // Addr = from image ID, Arg = to image ID
	DomainSwitchBegin  // Addr = from domain, Arg = to domain
	DomainSwitchEnd    // Addr = switch cycles excl. padding, Arg = padded cycles since the scheduled preemption
	FlushBegin         // Addr = 0 targeted on-core, 1 full hierarchy
	FlushEnd           // Addr = flush cycles
	PrefetchShared     // Addr = lines touched
	Pad                // Addr = cycles padded
	KernelIRQ          // Addr = line
	KernelSyscall      // Addr = handler text offset
	KernelClone        // Addr = source image ID, Arg = new image ID
	KernelDestroy      // Addr = image ID
	ChannelSymbol      // Addr = symbol the sender encodes this slice
	ChannelSampleBegin // Addr = sender symbol under measurement
	ChannelSampleEnd   // Addr = sender symbol, Arg = math.Float64bits(value)

	numKinds
)

var kindNames = [numKinds]string{
	"none",
	"cache-hit", "cache-miss", "cache-evict", "cache-writeback", "cache-flush",
	"tlb-hit", "tlb-hit-l2", "tlb-miss", "tlb-flush", "page-walk",
	"branch-hit", "branch-miss",
	"prefetch-issue",
	"dram-row-hit", "dram-row-miss", "bus-stall",
	"kernel-tick", "kernel-switch", "domain-switch-begin", "domain-switch-end",
	"flush-begin", "flush-end", "prefetch-shared", "pad",
	"kernel-irq", "kernel-syscall", "kernel-clone", "kernel-destroy",
	"channel-symbol", "channel-sample-begin", "channel-sample-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Unit identifies the component an event or counter belongs to.
type Unit uint8

// Units, in metrics-report order.
const (
	UnitNone Unit = iota
	UnitL1D
	UnitL1I
	UnitL2
	UnitL3
	UnitITLB
	UnitDTLB
	UnitL2TLB
	UnitBTB
	UnitBHB
	UnitPrefetch
	UnitWalk
	UnitDRAM
	UnitBus
	UnitKernel
	UnitChannel

	NumUnits
)

var unitNames = [NumUnits]string{
	"-", "L1-D", "L1-I", "L2", "L3", "I-TLB", "D-TLB", "L2-TLB",
	"BTB", "BHB", "prefetch", "ptwalk", "DRAM", "bus", "kernel", "channel",
}

func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// Event is one trace record. Time is the emitting core's cycle counter
// at the start of the operation; Domain is the security domain the core
// was executing when the event fired (kernel work on behalf of a domain
// is attributed to it, which is what makes cross-domain replay sound).
type Event struct {
	Time   uint64
	Addr   uint64 // kind-specific: line address, vpn, phase detail
	Arg    uint64 // kind-specific secondary detail
	Kind   Kind
	Unit   Unit
	Core   uint8
	Domain int16
}

func (e Event) String() string {
	return fmt.Sprintf("[%12d c%d d%d] %-19s %-8s addr=%#x arg=%d",
		e.Time, e.Core, e.Domain, e.Kind, e.Unit, e.Addr, e.Arg)
}

// UnitStats is the monotonic counter block of one component. Cycles is
// the simulated time attributed to the unit on the demand path;
// WritebackCycles separates the dirty-eviction cost the unit caused.
type UnitStats struct {
	Accesses        uint64
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	Writebacks      uint64
	Flushes         uint64
	FlushedLines    uint64
	Issues          uint64 // prefetch issues, walk steps, pad spins …
	Cycles          uint64
	WritebackCycles uint64
}

// ring is one core's fixed-capacity event buffer.
type ring struct {
	buf     []Event
	next    int
	wrapped bool
	total   uint64
}

func (r *ring) record(e Event) {
	r.total++
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

func (r *ring) snapshot() []Event {
	var out []Event
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Sink collects events and counters for one simulated machine (or, for
// counters-only sinks, any number of sequentially built machines whose
// metrics should aggregate — the per-experiment report). A nil *Sink is
// the disabled state; emitting components guard every site with a nil
// check so the instrumentation costs one predicted branch when off.
//
// All methods are single-goroutine, like the simulator itself. Distinct
// experiments running concurrently must use distinct sinks.
type Sink struct {
	// Clock returns a core's current cycle counter; the machine layer
	// installs it on attach. Nil stamps events with zero time.
	Clock func(core int) uint64

	// OnEvent, when non-nil, observes every event as it is emitted —
	// before the ring records (and possibly later overwrites) it. Live
	// consumers (the session API's SSE stream) tap the sink here; the
	// hook runs on the simulating goroutine, so it must not block.
	OnEvent func(Event)

	// PadCount / PadCycles account the domain-switch padding spins
	// (Requirement 4), which belong to no component: time deliberately
	// burnt to make the switch cost secret-independent.
	PadCount  uint64
	PadCycles uint64

	ringCap int
	rings   []*ring
	domains []int16
	units   [NumUnits]UnitStats
}

// NewSink builds a sink whose per-core event rings hold ringCap events
// each. ringCap 0 disables event recording (counters still accumulate),
// which is the cheap configuration for metrics-only runs.
func NewSink(ringCap int) *Sink {
	if ringCap < 0 {
		ringCap = 0
	}
	return &Sink{ringCap: ringCap}
}

// EventsEnabled reports whether events are retained (ringCap > 0).
func (s *Sink) EventsEnabled() bool { return s != nil && s.ringCap > 0 }

// coreRing returns core's ring, growing the table on first sight of a
// new core index.
func (s *Sink) coreRing(core int) *ring {
	for core >= len(s.rings) {
		s.rings = append(s.rings, &ring{buf: make([]Event, s.ringCap)})
		s.domains = append(s.domains, 0)
	}
	return s.rings[core]
}

// SetDomain records the security domain now executing on core; later
// events from that core are stamped with it. The kernel calls this at
// dispatch, so kernel work during a switch is attributed to the domain
// it runs on behalf of.
func (s *Sink) SetDomain(core, domain int) {
	if s == nil {
		return
	}
	s.coreRing(core)
	s.domains[core] = int16(domain)
}

// Emit records one event. Callers must hold a non-nil sink (they guard
// emission sites with a nil check; Emit does not re-check).
func (s *Sink) Emit(core int, kind Kind, unit Unit, addr, arg uint64) {
	r := s.coreRing(core)
	var now uint64
	if s.Clock != nil {
		now = s.Clock(core)
	}
	e := Event{
		Time: now, Addr: addr, Arg: arg,
		Kind: kind, Unit: unit, Core: uint8(core), Domain: s.domains[core],
	}
	if s.OnEvent != nil {
		s.OnEvent(e)
	}
	r.record(e)
}

// Unit returns the counter block of one component for direct in-place
// increments from instrumentation sites.
func (s *Sink) Unit(u Unit) *UnitStats { return &s.units[u] }

// UnitSnapshot returns a copy of one component's counters.
func (s *Sink) UnitSnapshot(u Unit) UnitStats { return s.units[u] }

// Total returns the number of events ever emitted (including any that
// the rings have since overwritten).
func (s *Sink) Total() uint64 {
	var n uint64
	for _, r := range s.rings {
		n += r.total
	}
	return n
}

// CoreEvents returns the retained events of one core, oldest first.
func (s *Sink) CoreEvents(core int) []Event {
	if s == nil || core >= len(s.rings) {
		return nil
	}
	return s.rings[core].snapshot()
}

// Events returns the retained events of every core merged into one
// time-ordered stream (ties keep the lower core first, so single-core
// traces come back exactly as recorded).
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	streams := make([][]Event, 0, len(s.rings))
	total := 0
	for i := range s.rings {
		ev := s.rings[i].snapshot()
		if len(ev) > 0 {
			streams = append(streams, ev)
			total += len(ev)
		}
	}
	out := make([]Event, 0, total)
	for len(streams) > 0 {
		best := 0
		for i := 1; i < len(streams); i++ {
			if streams[i][0].Time < streams[best][0].Time {
				best = i
			}
		}
		out = append(out, streams[best][0])
		streams[best] = streams[best][1:]
		if len(streams[best]) == 0 {
			streams = append(streams[:best], streams[best+1:]...)
		}
	}
	return out
}

// Count returns how many retained events match kind (any unit when
// unit is UnitNone).
func (s *Sink) Count(kind Kind, unit Unit) int {
	n := 0
	for _, r := range s.rings {
		for _, e := range r.snapshot() {
			if e.Kind == kind && (unit == UnitNone || e.Unit == unit) {
				n++
			}
		}
	}
	return n
}
