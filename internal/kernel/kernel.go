package kernel

import (
	"fmt"

	"timeprotection/internal/cache"
	"timeprotection/internal/hw"
	"timeprotection/internal/memory"
	"timeprotection/internal/trace"
)

// Scenario selects the mitigation configuration of paper §5.2.
type Scenario int

// Scenarios.
const (
	// ScenarioRaw is the unmitigated baseline: a single shared kernel,
	// colour-blind allocation, plain context switches.
	ScenarioRaw Scenario = iota
	// ScenarioFullFlush performs the maximal architected reset on every
	// domain switch: full cache-hierarchy flush, TLB and branch-predictor
	// flush, data prefetcher disabled at boot.
	ScenarioFullFlush
	// ScenarioProtected is time protection: cloned coloured kernels,
	// targeted on-core flush, deterministic shared-data prefetch,
	// interrupt partitioning and optional padding.
	ScenarioProtected
)

func (s Scenario) String() string {
	switch s {
	case ScenarioRaw:
		return "raw"
	case ScenarioFullFlush:
		return "full flush"
	case ScenarioProtected:
		return "protected"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// ParseScenario resolves the name a scenario goes by on command lines
// and in the session API: raw, fullflush or protected.
func ParseScenario(name string) (Scenario, bool) {
	switch name {
	case "raw":
		return ScenarioRaw, true
	case "fullflush":
		return ScenarioFullFlush, true
	case "protected":
		return ScenarioProtected, true
	}
	return 0, false
}

// Config is the kernel build/boot configuration.
type Config struct {
	Scenario Scenario
	// TimesliceCycles is the preemption-timer period; 0 selects a
	// platform default of 100 simulated microseconds.
	TimesliceCycles uint64
	// CloneSupport builds the colour-ready kernel: kernel mappings are
	// per-ASID (non-global) so that multiple kernel images can coexist.
	// The original kernel (false) uses global mappings and cannot clone.
	CloneSupport bool
	// StrictDomains enforces a static, time-driven domain schedule: at
	// any instant every core may only run threads of the domain that
	// owns the current global slot, idling otherwise. This implements
	// the §3.1.1 confinement requirement of co-scheduling domains across
	// cores "such that at any time only one domain executes" (closing
	// the concurrent interconnect channel by construction), and removes
	// the work-conserving scheduler's own cross-domain channel.
	StrictDomains bool
	// ScheduleDomains is the configured slot rotation for StrictDomains.
	// It must be static configuration — deriving it from live threads
	// would itself be a channel (a domain could signal by exiting). When
	// nil, the rotation defaults to the domains present at first use.
	ScheduleDomains []int
	// FuzzyClockGrain quantises the user-visible cycle counter to this
	// granularity — the "deny attackers access to real time" counter-
	// measure the paper's footnote 4 dismisses as infeasible outside
	// extremely constrained scenarios (it breaks every legitimate use of
	// fine-grained time too). Zero means a precise clock.
	FuzzyClockGrain uint64
}

type coreState struct {
	cur       *TCB
	curImage  *Image
	curASID   uint16
	curDomain int
	nextTick  uint64
	tickStart uint64
	env       *Env
}

// Kernel is the machine-wide kernel subsystem: all images, the scheduler,
// per-core dispatch state and the IRQ bindings.
type Kernel struct {
	M      *hw.Machine
	Cfg    Config
	Shared *SharedRegion
	Images []*Image

	nextImageID int
	nextASID    uint16

	cores      []*coreState
	sched      *Scheduler
	allThreads []*TCB

	irqBind map[int]*irqBinding

	// latchedSchedule is the StrictDomains default rotation, captured
	// once (see slotDomain).
	latchedSchedule []int

	// Tracer is the machine-wide observability sink (nil = disabled);
	// attach it with AttachTracer so the hierarchy and clock are wired
	// up too; a sink set here alone observes the kernel's own events and
	// counters, without timestamps. Recording consumes no simulated time
	// and is never part of the encoded state.
	Tracer *trace.Sink
}

// AttachTracer wires the observability sink through the kernel and its
// machine. Pass nil to detach.
func (k *Kernel) AttachTracer(s *trace.Sink) {
	k.Tracer = s
	k.M.AttachTracer(s)
}

// emit records one kernel-unit trace event when event recording is on.
func (k *Kernel) emit(core int, kind trace.Kind, addr, arg uint64) {
	if k.Tracer != nil && k.Tracer.EventsEnabled() {
		k.Tracer.Emit(core, kind, trace.UnitKernel, addr, arg)
	}
}

// stampDomain publishes core's current security domain to the tracer.
// On a mitigated domain switch this is called only after the flush and
// shared-data prefetch complete, so kernel work inside the switch stays
// attributed to the outgoing domain and a post-flush replay sees a
// clean slate for the incoming one.
func (k *Kernel) stampDomain(core int) {
	if k.Tracer != nil {
		k.Tracer.SetDomain(core, k.cores[core].curDomain)
	}
}

// kSpin advances the core like hw.Machine.Spin and attributes the
// cycles to the kernel unit (fixed pipeline costs of traps, flush
// operations, timer programming).
func (k *Kernel) kSpin(core, n int) {
	k.M.Spin(core, n)
	if k.Tracer != nil {
		k.Tracer.Unit(trace.UnitKernel).Cycles += uint64(n)
	}
}

// flushEvent records one architected cache/predictor flush on unit u.
func (k *Kernel) flushEvent(core int, u trace.Unit, valid, dirty int) {
	if k.Tracer == nil {
		return
	}
	st := k.Tracer.Unit(u)
	st.Flushes++
	st.FlushedLines += uint64(valid)
	if k.Tracer.EventsEnabled() {
		k.Tracer.Emit(core, trace.CacheFlush, u, uint64(valid), uint64(dirty))
	}
}

type irqBinding struct {
	img   *Image        // nil: unpartitioned (always deliverable — and leaky)
	notif *Notification // signalled on delivery, if set
	// awaitingAck marks a delivered line masked until the user-level
	// handler acknowledges it (seL4's IRQHandler_Ack protocol). Only
	// lines with a bound notification use this protocol.
	awaitingAck bool
}

// Boot builds a machine for the platform and boots the kernel on it.
func Boot(plat hw.Platform, cfg Config) (*Kernel, error) {
	if cfg.TimesliceCycles == 0 {
		cfg.TimesliceCycles = plat.MicrosToCycles(100)
	}
	if cfg.Scenario == ScenarioProtected && !cfg.CloneSupport {
		return nil, fmt.Errorf("kernel: the protected scenario requires CloneSupport")
	}
	m := hw.NewMachine(plat)
	k := &Kernel{M: m, Cfg: cfg, nextASID: 1, irqBind: make(map[int]*irqBinding)}
	shared, err := newSharedRegion(m)
	if err != nil {
		return nil, err
	}
	k.Shared = shared
	img0, err := k.newBootImage()
	if err != nil {
		return nil, err
	}
	img0.idle = &TCB{Name: "idle/k0", Image: img0, State: StateReady, isIdle: true, Prio: -1}
	k.Images = []*Image{img0}
	k.sched = newScheduler(k)
	for i := 0; i < plat.Cores; i++ {
		cs := &coreState{curImage: img0, nextTick: cfg.TimesliceCycles}
		cs.env = &Env{k: k, core: i}
		k.cores = append(k.cores, cs)
	}
	if cfg.Scenario == ScenarioFullFlush {
		// The full-flush configuration disables the data prefetcher
		// (MSR 0x1A4 on x86, ACTLR on the A9) to minimise uncontrollable
		// state (§5.2).
		for i := 0; i < plat.Cores; i++ {
			m.Hier.PrefetcherOf(i).Disable()
		}
	}
	return k, nil
}

// BootImage returns the initial (indestructible) kernel image.
func (k *Kernel) BootImage() *Image { return k.Images[0] }

// Timeslice returns the preemption period in cycles.
func (k *Kernel) Timeslice() uint64 { return k.Cfg.TimesliceCycles }

// SetTimeslice sets the preemption period of a kernel that has not
// dispatched yet: the period and every core's first tick, exactly as
// Boot would have set them from Config.TimesliceCycles (0 selects the
// same default). Boot state does not depend on the period, so a kernel
// booted with one period and set to another equals one booted with the
// other. Once a core has ticked or dispatched a thread the period is
// fixed and SetTimeslice fails.
func (k *Kernel) SetTimeslice(cycles uint64) error {
	if cycles == 0 {
		cycles = k.M.Plat.MicrosToCycles(100)
	}
	for i, cs := range k.cores {
		if cs.cur != nil || cs.nextTick != k.Cfg.TimesliceCycles {
			return fmt.Errorf("kernel: core %d has run; the timeslice can no longer change", i)
		}
	}
	k.Cfg.TimesliceCycles = cycles
	for _, cs := range k.cores {
		cs.nextTick = cycles
	}
	return nil
}

// CurrentThread returns the thread running on core (nil when idle).
func (k *Kernel) CurrentThread(core int) *TCB { return k.cores[core].cur }

// CurrentImage returns the kernel image active on core.
func (k *Kernel) CurrentImage(core int) *Image { return k.cores[core].curImage }

// NewProcess creates a user protection domain served by the given kernel
// image, drawing all memory (address space, cap store, kernel objects)
// from pool.
func (k *Kernel) NewProcess(name string, pool *memory.Pool, img *Image) (*Process, error) {
	as, err := memory.NewAddressSpace(k.nextASID, pool)
	if err != nil {
		return nil, fmt.Errorf("process %s: %w", name, err)
	}
	k.nextASID++
	p := &Process{Name: name, AS: as, Pool: pool, Image: img}
	cnode, err := p.allocObj(4096) // cap store (CNode) frame
	if err != nil {
		return nil, fmt.Errorf("process %s cnode: %w", name, err)
	}
	p.cnodeAddr = cnode
	return p, nil
}

// NewThread creates a thread in proc with the given priority and
// security domain, backed by a TCB object in the process pool, and makes
// it runnable.
func (k *Kernel) NewThread(proc *Process, name string, prio, domain int, prog Program) (*TCB, error) {
	if prio < 0 || prio >= NumPriorities {
		return nil, fmt.Errorf("%w: priority %d", ErrOutOfBounds, prio)
	}
	addr, err := proc.allocObj(1024) // TCB object
	if err != nil {
		return nil, err
	}
	t := &TCB{Name: name, Proc: proc, Prio: prio, Domain: domain, Image: proc.Image, Program: prog, ObjAddr: addr}
	k.allThreads = append(k.allThreads, t)
	k.sched.Enqueue(0, t)
	return t, nil
}

// NewEndpoint creates an IPC endpoint backed by proc's pool.
func (k *Kernel) NewEndpoint(proc *Process) (*Endpoint, error) {
	addr, err := proc.allocObj(64)
	if err != nil {
		return nil, err
	}
	return &Endpoint{ObjAddr: addr}, nil
}

// NewNotification creates a notification object backed by proc's pool.
func (k *Kernel) NewNotification(proc *Process) (*Notification, error) {
	addr, err := proc.allocObj(64)
	if err != nil {
		return nil, err
	}
	return &Notification{ObjAddr: addr}, nil
}

// slotDomain returns the domain owning the global schedule slot at the
// given time under StrictDomains. The schedule is derived purely from
// time and static configuration, so all cores agree on it without
// shared mutable state — the co-scheduling of §3.1.1.
func (k *Kernel) slotDomain(now uint64) (int, bool) {
	domains := k.Cfg.ScheduleDomains
	if len(domains) == 0 {
		// Latch a default rotation from the domains present at first
		// use; it must not track thread liveness afterwards.
		if k.latchedSchedule == nil {
			k.latchedSchedule = k.domainList()
		}
		domains = k.latchedSchedule
	}
	if len(domains) == 0 {
		return 0, false
	}
	slot := now / k.Cfg.TimesliceCycles
	return domains[slot%uint64(len(domains))], true
}

// domainList returns the sorted distinct domains of live threads.
func (k *Kernel) domainList() []int {
	seen := map[int]bool{}
	var out []int
	for _, t := range k.allThreads {
		if t.State == StateDone || t.State == StateSuspended {
			continue
		}
		if !seen[t.Domain] {
			seen[t.Domain] = true
			out = append(out, t.Domain)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SetInt implements Kernel_SetInt (§4.2): associates an IRQ line with a
// kernel image. Only that image's domains will have the line unmasked.
// Passing a nil image dissociates the line (unpartitioned).
func (k *Kernel) SetInt(line int, img *Image) {
	b := k.bindingFor(line)
	b.img = img
}

// BindIRQNotification delivers line as a signal on n.
func (k *Kernel) BindIRQNotification(line int, n *Notification) {
	b := k.bindingFor(line)
	b.notif = n
}

func (k *Kernel) bindingFor(line int) *irqBinding {
	b, ok := k.irqBind[line]
	if !ok {
		b = &irqBinding{}
		k.irqBind[line] = b
	}
	return b
}

// ---- Kernel memory-access charging -----------------------------------

// kernelGlobalMappings reports whether kernel TLB entries are global
// (the original kernel) or per-ASID (colour-ready, clonable).
func (k *Kernel) kernelGlobalMappings() bool { return !k.Cfg.CloneSupport }

// kAccess charges one kernel access at kernel virtual address vaddr
// backed by physical paddr, via image img on the given core: TLB lookup
// (with the image's page tables walked on a miss) followed by the cache
// access.
func (k *Kernel) kAccess(core int, img *Image, vaddr, paddr uint64, write, ifetch bool) {
	cs := k.cores[core]
	vpn := vaddr >> memory.PageBits
	switch k.M.Hier.TLBLevel(core, vpn, cs.curASID, ifetch) {
	case cache.TLBHitL1:
		// free
	case cache.TLBHitL2:
		k.M.Spin(core, k.M.Hier.L2TLBHitLatency())
	default:
		for _, w := range img.walkAddrs(vpn) {
			k.M.PhysLoad(core, w)
		}
		k.M.Hier.TLBInsert(core, vpn, cs.curASID, k.kernelGlobalMappings(), ifetch)
	}
	k.chargeHier(core, vaddr, paddr, write, ifetch)
}

// chargeHier performs the cache access and advances the core clock.
func (k *Kernel) chargeHier(core int, vaddr, paddr uint64, write, ifetch bool) {
	var c int
	if ifetch {
		c = k.M.Hier.Fetch(core, vaddr, paddr)
	} else {
		c = k.M.Hier.Data(core, vaddr, paddr, write)
	}
	k.M.Cores[core].Now += uint64(c)
}

// kDataShared charges an access to the shared static region (kernel VA
// kSharedBase+off) via the current image's mappings.
func (k *Kernel) kDataShared(core int, paddr uint64, write bool) {
	cs := k.cores[core]
	off := paddr - k.Shared.base
	k.kAccess(core, cs.curImage, kSharedBase+off, paddr, write, false)
}

// kDataObj charges an access to a kernel object in a user pool frame.
// Kernel objects are mapped through the kernel's physical window; model
// the window as identity-offset kernel VAs.
func (k *Kernel) kDataObj(core int, paddr uint64, write bool) {
	cs := k.cores[core]
	k.kAccess(core, cs.curImage, 0xD000_0000+paddr, paddr, write, false)
}

// execText charges instruction fetches over [off, off+length) of the
// image's text segment.
func (k *Kernel) execText(core int, img *Image, off, length uint64) {
	lineSize := uint64(k.M.Plat.Hierarchy.L1I.LineSize)
	end := off + length
	for a := off &^ (lineSize - 1); a < end; a += lineSize {
		k.kAccess(core, img, kTextBase+a, img.textPA(a), false, true)
	}
}

// touchStack charges n line accesses to the image's kernel stack.
func (k *Kernel) touchStack(core int, img *Image, n int, write bool) {
	lineSize := uint64(k.M.Plat.Hierarchy.L1D.LineSize)
	for i := 0; i < n; i++ {
		off := uint64(i) * lineSize % memory.PageSize
		k.kAccess(core, img, kStackBase+off, img.stackPA(off), write, false)
	}
}
