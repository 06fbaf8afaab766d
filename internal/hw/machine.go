package hw

import (
	"fmt"

	"timeprotection/internal/cache"
	"timeprotection/internal/memory"
	"timeprotection/internal/trace"
)

// Core is one hardware thread of the machine. Now is its cycle counter
// (the rdtsc / CCNT analogue); it only moves forward, advanced by the
// cost of simulated operations.
type Core struct {
	ID  int
	Now uint64

	// TimerDeadline is the preemption-timer deadline in cycles; zero
	// means disarmed. The kernel's run loop polls it.
	TimerDeadline uint64
}

// Machine is a whole simulated computer: platform parameters, the cache
// hierarchy, cores, physical memory and the interrupt fabric.
type Machine struct {
	Plat  Platform
	Hier  *cache.Hierarchy
	Cores []*Core
	Alloc *memory.FrameAllocator
	IRQ   *IRQController
	// Bus is the optional shared-interconnect model (nil = uncontended).
	Bus *MemoryBus

	timers []*DeviceTimer
}

// NewMachine builds a machine for the platform with the given page
// colour count (usually plat.Colours()).
func NewMachine(plat Platform) *Machine {
	m := &Machine{
		Plat:  plat,
		Hier:  cache.NewHierarchy(plat.Hierarchy),
		Alloc: memory.NewFrameAllocator(0, plat.RAMFrames, plat.Colours()),
		IRQ:   NewIRQController(plat.Cores, plat.TwoLevelIRQ),
	}
	for i := 0; i < plat.Cores; i++ {
		m.Cores = append(m.Cores, &Core{ID: i})
	}
	return m
}

// AttachTracer wires the observability sink into the machine: the
// hierarchy starts emitting, and event timestamps read the emitting
// core's cycle counter. Pass nil to detach.
func (m *Machine) AttachTracer(s *trace.Sink) {
	m.Hier.SetTracer(s)
	if s != nil {
		s.Clock = func(core int) uint64 { return m.Cores[core].Now }
	}
}

// Tracer returns the attached sink (nil when tracing is disabled).
func (m *Machine) Tracer() *trace.Sink { return m.Hier.Tracer() }

// AttachBus routes every DRAM access through a shared-interconnect
// model; contention cycles are charged to the accessing core. Detach by
// passing nil.
func (m *Machine) AttachBus(b *MemoryBus) {
	m.Bus = b
	if b == nil {
		m.Hier.MemHook = nil
		return
	}
	m.Hier.MemHook = func(core int) int {
		return b.Access(core, m.Cores[core].Now)
	}
}

// Spin advances core's cycle counter by n cycles of pure computation.
func (m *Machine) Spin(core, n int) {
	m.Cores[core].Now += uint64(n)
}

// translate resolves vaddr through the TLB hierarchy and, on a miss,
// performs the page-table walk as physical data accesses (so page-table
// placement has its true cache footprint). It returns the physical
// address and the cycles consumed by translation.
func (m *Machine) translate(core int, as *memory.AddressSpace, vaddr uint64, ifetch bool) (uint64, int) {
	tr, ok := as.Translate(vaddr)
	if !ok {
		panic(fmt.Sprintf("hw: core %d: unmapped access %#x (asid %d)", core, vaddr, as.ASID()))
	}
	return tr.PAddr, m.translateCost(core, as, vaddr, tr, ifetch)
}

// translateCost charges the TLB/walk side of a translation whose
// page-table result is already in hand (the batch paths call
// as.Translate once and reuse tr on the slow path).
func (m *Machine) translateCost(core int, as *memory.AddressSpace, vaddr uint64, tr memory.Translation, ifetch bool) int {
	vpn := vaddr >> memory.PageBits
	switch m.Hier.TLBLevel(core, vpn, as.ASID(), ifetch) {
	case cache.TLBHitL1:
		return 0
	case cache.TLBHitL2:
		return m.Hier.L2TLBHitLatency()
	}
	// Full miss: hardware walker loads the two PTEs through the data
	// cache path, then the translation is installed.
	cycles := 0
	for _, w := range tr.Walk {
		cycles += m.Hier.Data(core, w, w, false)
	}
	m.Hier.TLBInsert(core, vpn, as.ASID(), tr.Global, ifetch)
	if s := m.Hier.Tracer(); s != nil {
		w := s.Unit(trace.UnitWalk)
		w.Issues++
		w.Cycles += uint64(cycles)
		if s.EventsEnabled() {
			s.Emit(core, trace.PageWalk, trace.UnitWalk, vpn, uint64(cycles))
		}
	}
	return cycles
}

// Load performs a data load at vaddr in the given address space,
// advancing the core's cycle counter and returning the cycles consumed.
func (m *Machine) Load(core int, as *memory.AddressSpace, vaddr uint64) int {
	paddr, c := m.translate(core, as, vaddr, false)
	c += m.Hier.Data(core, vaddr, paddr, false)
	m.Cores[core].Now += uint64(c)
	return c
}

// Store performs a data store at vaddr.
func (m *Machine) Store(core int, as *memory.AddressSpace, vaddr uint64) int {
	paddr, c := m.translate(core, as, vaddr, false)
	c += m.Hier.Data(core, vaddr, paddr, true)
	m.Cores[core].Now += uint64(c)
	return c
}

// batchAccess runs the per-element body shared by the batch entry
// points: each address goes through exactly the translate-then-access
// sequence of the scalar Load/Store/Fetch. Element i is a store when
// stores[i] is set or, with stores nil, when write is. Whenever the
// first-level TLB hits, the hierarchy's fast path takes the TLB and L1
// in one pass, and an element on the same page as the one before reuses
// that element's translation and TLB entry instead of looking either up
// again. Per-access cycle costs are written into costs when non-nil, so
// callers reconstructing fine-grained timestamps (the prime&probe miss
// counters) see the same per-element clock a scalar loop would have
// read.
func (m *Machine) batchAccess(core int, as *memory.AddressSpace, vaddrs []uint64, stores []bool, costs []int, write, ifetch bool) {
	cpu := m.Cores[core]
	h := m.Hier
	asid := as.ASID()
	var tr memory.Translation
	vpn, ent := ^uint64(0), -1 // no page yet: a vpn never exceeds 52 bits
	for i, v := range vaddrs {
		if stores != nil {
			write = stores[i]
		}
		if v>>memory.PageBits == vpn {
			tr.PAddr = tr.Frame.Addr() | v&(memory.PageSize-1)
		} else {
			var ok bool
			if tr, ok = as.Translate(v); !ok {
				panic(fmt.Sprintf("hw: core %d: unmapped access %#x (asid %d)", core, v, asid))
			}
			vpn, ent = v>>memory.PageBits, -1
		}
		c, e := h.AccessFast(core, ent, vpn, asid, v, tr.PAddr, write, ifetch)
		if e < 0 {
			c = m.translateCost(core, as, v, tr, ifetch)
			if ifetch {
				c += h.Fetch(core, v, tr.PAddr)
			} else {
				c += h.Data(core, v, tr.PAddr, write)
			}
		}
		ent = e
		cpu.Now += uint64(c)
		if costs != nil {
			costs[i] = c
		}
	}
}

// LoadBatch performs a data load at every address in vaddrs, exactly as
// the same sequence of Load calls would, writing per-access cycle costs
// into costs when non-nil (which must then be at least len(vaddrs)).
func (m *Machine) LoadBatch(core int, as *memory.AddressSpace, vaddrs []uint64, costs []int) {
	m.batchAccess(core, as, vaddrs, nil, costs, false, false)
}

// StoreBatch is the store counterpart of LoadBatch.
func (m *Machine) StoreBatch(core int, as *memory.AddressSpace, vaddrs []uint64, costs []int) {
	m.batchAccess(core, as, vaddrs, nil, costs, true, false)
}

// AccessBatch performs a mixed data stream: element i is a Store when
// stores[i] is set and a Load otherwise (stores must be at least
// len(vaddrs) long), exactly as that sequence of scalar calls would.
func (m *Machine) AccessBatch(core int, as *memory.AddressSpace, vaddrs []uint64, stores []bool, costs []int) {
	m.batchAccess(core, as, vaddrs, stores, costs, false, false)
}

// FetchBatch performs an instruction fetch at every pc in pcs, exactly
// as the same sequence of Fetch calls would.
func (m *Machine) FetchBatch(core int, as *memory.AddressSpace, pcs []uint64, costs []int) {
	m.batchAccess(core, as, pcs, nil, costs, false, true)
}

// Fetch performs an instruction fetch at pc (one line's worth of
// instructions; callers fetch per line, not per instruction).
func (m *Machine) Fetch(core int, as *memory.AddressSpace, pc uint64) int {
	paddr, c := m.translate(core, as, pc, true)
	c += m.Hier.Fetch(core, pc, paddr)
	m.Cores[core].Now += uint64(c)
	return c
}

// Branch executes a taken/indirect branch at pc to target through the
// BTB, charging any mispredict penalty.
func (m *Machine) Branch(core int, pc, target uint64) int {
	c := m.Hier.Branch(core, pc, target)
	m.Cores[core].Now += uint64(c)
	return c
}

// CondBranch executes a conditional branch through the history
// predictor.
func (m *Machine) CondBranch(core int, pc uint64, taken bool) int {
	c := m.Hier.CondBranch(core, pc, taken)
	m.Cores[core].Now += uint64(c)
	return c
}

// PhysLoad / PhysStore access physical addresses directly (kernel
// accesses to its own image and to the shared static region, page-table
// walks by software, etc.). Kernel virtual mappings are modelled as
// offset-mapped, so the TLB cost of kernel accesses is charged
// separately by the kernel layer, which knows its mapping policy.
func (m *Machine) PhysLoad(core int, paddr uint64) int {
	c := m.Hier.Data(core, paddr, paddr, false)
	m.Cores[core].Now += uint64(c)
	return c
}

// PhysStore is the store counterpart of PhysLoad.
func (m *Machine) PhysStore(core int, paddr uint64) int {
	c := m.Hier.Data(core, paddr, paddr, true)
	m.Cores[core].Now += uint64(c)
	return c
}

// PhysFetch fetches kernel text at a physical address.
func (m *Machine) PhysFetch(core int, paddr uint64) int {
	c := m.Hier.Fetch(core, paddr, paddr)
	m.Cores[core].Now += uint64(c)
	return c
}

// DeviceTimer is a programmable one-shot timer raising an IRQ line when
// the core's cycle counter passes FireAt. It models the user-visible
// timer device of the interrupt-channel experiment (Figure 6).
type DeviceTimer struct {
	IRQ    int
	FireAt uint64
	Armed  bool
}

// AddTimer registers a device timer and returns it.
func (m *Machine) AddTimer(irq int) *DeviceTimer {
	t := &DeviceTimer{IRQ: irq}
	m.timers = append(m.timers, t)
	return t
}

// Arm programs the timer to fire at absolute cycle time fireAt.
func (t *DeviceTimer) Arm(fireAt uint64) {
	t.FireAt = fireAt
	t.Armed = true
}

// PollDevices raises IRQs for any device timers that are due at the
// core's current time. The kernel run loop calls this between steps.
func (m *Machine) PollDevices(now uint64) {
	for _, t := range m.timers {
		if t.Armed && now >= t.FireAt {
			t.Armed = false
			m.IRQ.Raise(t.IRQ)
		}
	}
}

// NextDeviceFire returns the earliest armed device-timer deadline, used
// by the idle loop to avoid fast-forwarding past a device event.
func (m *Machine) NextDeviceFire() (uint64, bool) {
	var best uint64
	found := false
	for _, t := range m.timers {
		if t.Armed && (!found || t.FireAt < best) {
			best, found = t.FireAt, true
		}
	}
	return best, found
}
