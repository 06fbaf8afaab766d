package kernel

import (
	"fmt"

	"timeprotection/internal/hw"
	"timeprotection/internal/memory"
)

// IRQHandler is the object behind an IRQ_Handler capability: authority
// over one interrupt line and (here) its programmable timer device.
type IRQHandler struct {
	Line  int
	Timer *hw.DeviceTimer
}

// Env is the execution environment handed to user programs: memory
// accesses through the thread's address space, timing (the cycle
// counter), and capability-checked system calls. One Env exists per
// core; the kernel points it at the current thread before each Step.
type Env struct {
	k    *Kernel
	core int
	// costScratch backs CostScratch: programs on a core run one Step at a
	// time, so a single reusable buffer per environment serves every batch
	// cost readback without allocating in the measurement loop.
	costScratch []int
}

// thread returns the invoking thread. Programs must not issue further
// operations after a blocking call within the same Step (the kernel has
// already switched threads); Blocked() lets them check.
func (e *Env) thread() *TCB { return e.k.cores[e.core].cur }

// Core returns the core this environment executes on.
func (e *Env) Core() int { return e.core }

// Kernel returns the kernel (for tests and experiment harnesses).
func (e *Env) Kernel() *Kernel { return e.k }

// Platform returns the hardware platform.
func (e *Env) Platform() hw.Platform { return e.k.M.Plat }

// Now returns the core's cycle counter — the rdtsc/CCNT analogue, and
// the only clock attackers in the paper's threat model need. Under the
// fuzzy-time configuration the value is quantised.
func (e *Env) Now() uint64 {
	now := e.k.M.Cores[e.core].Now
	if g := e.k.Cfg.FuzzyClockGrain; g > 0 {
		now = now / g * g
	}
	return now
}

// PreciseNow bypasses the fuzzy clock (harness instrumentation only —
// workload completion accounting, not attacker-visible).
func (e *Env) PreciseNow() uint64 { return e.k.M.Cores[e.core].Now }

// Blocked reports whether the calling program's thread is no longer
// current (it blocked or was preempted); Step must return promptly.
func (e *Env) Blocked(t *TCB) bool { return e.k.cores[e.core].cur != t }

// Load performs a user data load, returning its cycle cost (the
// measurement primitive of every prime&probe receiver).
func (e *Env) Load(vaddr uint64) int {
	return e.k.M.Load(e.core, e.thread().Proc.AS, vaddr)
}

// Store performs a user data store.
func (e *Env) Store(vaddr uint64) int {
	return e.k.M.Store(e.core, e.thread().Proc.AS, vaddr)
}

// Exec fetches one line of user instructions at pc.
func (e *Env) Exec(pc uint64) int {
	return e.k.M.Fetch(e.core, e.thread().Proc.AS, pc)
}

// LoadBatch performs a data load at every address, exactly as the same
// sequence of Load calls would; per-access costs land in costs when
// non-nil. It is the allocation-free stepping primitive of the probe
// loops: one call walks a flat line array instead of re-resolving the
// thread and address space per access.
func (e *Env) LoadBatch(vaddrs []uint64, costs []int) {
	e.k.M.LoadBatch(e.core, e.thread().Proc.AS, vaddrs, costs)
}

// StoreBatch is the store counterpart of LoadBatch.
func (e *Env) StoreBatch(vaddrs []uint64, costs []int) {
	e.k.M.StoreBatch(e.core, e.thread().Proc.AS, vaddrs, costs)
}

// AccessBatch performs a mixed data stream in one call: element i is a
// Store when stores[i] is set and a Load otherwise, exactly as that
// sequence of Load and Store calls would. It is the stepping primitive
// of the Splash-2 analogues, whose blocks interleave the two.
func (e *Env) AccessBatch(vaddrs []uint64, stores []bool, costs []int) {
	e.k.M.AccessBatch(e.core, e.thread().Proc.AS, vaddrs, stores, costs)
}

// ExecBatch fetches every pc as one line of user instructions, exactly
// as the same sequence of Exec calls would.
func (e *Env) ExecBatch(pcs []uint64, costs []int) {
	e.k.M.FetchBatch(e.core, e.thread().Proc.AS, pcs, costs)
}

// CostScratch returns a reusable []int of length n owned by this
// environment, for batch cost readback. Contents are unspecified; the
// buffer is only valid until the next CostScratch call on this core.
func (e *Env) CostScratch(n int) []int {
	if cap(e.costScratch) < n {
		e.costScratch = make([]int, n)
	}
	return e.costScratch[:n]
}

// CondBranch executes a conditional branch through the core's history
// predictor, returning the penalty cycles.
func (e *Env) CondBranch(pc uint64, taken bool) int {
	return e.k.M.CondBranch(e.core, pc, taken)
}

// IndirectBranch executes a taken/indirect branch through the BTB.
func (e *Env) IndirectBranch(pc, target uint64) int {
	return e.k.M.Branch(e.core, pc, target)
}

// Spin burns n cycles of pure computation.
func (e *Env) Spin(n int) { e.k.M.Spin(e.core, n) }

// SleepRest yields the CPU until the next preemption tick (the paper's
// trojans "sleep for the rest of the time slice").
func (e *Env) SleepRest() {
	t := e.thread()
	cs := e.k.cores[e.core]
	t.sleepUntil = cs.nextTick
	t.State = StateReady
	e.k.sched.Enqueue(e.core, t)
	cs.cur = nil
}

// ---- Capability-checked system calls ---------------------------------

func (e *Env) lookupNotification(slot int) (*Notification, error) {
	c, err := e.thread().Proc.CSpace.Lookup(slot, CapNotification, RightWrite)
	if err != nil {
		return nil, err
	}
	return c.Obj.(*Notification), nil
}

// Signal raises the notification behind slot.
func (e *Env) Signal(slot int) error {
	n, err := e.lookupNotification(slot)
	if err != nil {
		return err
	}
	e.k.sysSignal(e.core, e.thread(), n)
	return nil
}

// Poll reads and clears the notification word behind slot.
func (e *Env) Poll(slot int) (uint64, error) {
	n, err := e.lookupNotification(slot)
	if err != nil {
		return 0, err
	}
	return e.k.sysPoll(e.core, e.thread(), n), nil
}

// Wait blocks on the notification behind slot until it is signalled
// (consuming the word immediately if already set). On return the thread
// has usually blocked; the program must return from Step.
func (e *Env) Wait(slot int) error {
	n, err := e.lookupNotification(slot)
	if err != nil {
		return err
	}
	e.k.sysWait(e.core, e.thread(), n)
	return nil
}

// Retype converts the Untyped capability behind utSlot into
// Kernel_Memory sized for this platform's kernel image, installing the
// new capability and returning its slot — the first step of the §4.1
// cloning recipe done entirely through capabilities.
func (e *Env) Retype(utSlot int) (int, error) {
	t := e.thread()
	c, err := t.Proc.CSpace.Lookup(utSlot, CapUntyped, RightWrite)
	if err != nil {
		return 0, err
	}
	ut := c.Obj.(*memory.Untyped)
	g := geometryFor(e.k.M.Plat.Arch)
	frames, err := ut.Retype(g.TotalPages())
	if err != nil {
		return 0, err
	}
	e.k.syscallEnter(e.core, t, utSlot, sysTextClone, sysTextCloneLen/4)
	e.k.syscallExit(e.core)
	km := &KernelMemory{Frames: frames}
	return t.Proc.CSpace.Install(Capability{Type: CapKernelMemory, Rights: RightRead | RightWrite, Obj: km}), nil
}

// Suspend removes the thread behind slot from scheduling.
func (e *Env) Suspend(slot int) error {
	c, err := e.thread().Proc.CSpace.Lookup(slot, CapTCB, RightWrite)
	if err != nil {
		return err
	}
	e.k.sysSuspend(e.core, e.thread(), c.Obj.(*TCB))
	return nil
}

// Resume makes a suspended thread runnable again.
func (e *Env) Resume(slot int) error {
	c, err := e.thread().Proc.CSpace.Lookup(slot, CapTCB, RightWrite)
	if err != nil {
		return err
	}
	e.k.sysResume(e.core, e.thread(), c.Obj.(*TCB))
	return nil
}

// IRQAck acknowledges a delivered interrupt so the line can fire again
// (the seL4 IRQHandler_Ack protocol; delivery masks the line).
func (e *Env) IRQAck(irqSlot int) error {
	c, err := e.thread().Proc.CSpace.Lookup(irqSlot, CapIRQHandler, RightWrite)
	if err != nil {
		return err
	}
	e.k.sysIRQAck(e.core, e.thread(), c.Obj.(*IRQHandler).Line)
	return nil
}

// SetPriority changes the priority of the TCB behind slot.
func (e *Env) SetPriority(slot, prio int) error {
	c, err := e.thread().Proc.CSpace.Lookup(slot, CapTCB, RightWrite)
	if err != nil {
		return err
	}
	return e.k.sysSetPriority(e.core, e.thread(), c.Obj.(*TCB), prio)
}

// Yield gives up the remainder of the slice.
func (e *Env) Yield() { e.k.sysYield(e.core, e.thread()) }

// Call performs call-style IPC on the endpoint behind slot. On return
// the thread has usually blocked; the program must return from Step.
func (e *Env) Call(slot int) error {
	c, err := e.thread().Proc.CSpace.Lookup(slot, CapEndpoint, RightWrite)
	if err != nil {
		return err
	}
	e.k.sysCall(e.core, e.thread(), c.Obj.(*Endpoint))
	return nil
}

// Recv blocks on the endpoint behind slot.
func (e *Env) Recv(slot int) error {
	c, err := e.thread().Proc.CSpace.Lookup(slot, CapEndpoint, RightRead)
	if err != nil {
		return err
	}
	e.k.sysRecv(e.core, e.thread(), c.Obj.(*Endpoint))
	return nil
}

// ReplyRecv replies to the current client and waits for the next one.
func (e *Env) ReplyRecv(slot int) error {
	c, err := e.thread().Proc.CSpace.Lookup(slot, CapEndpoint, RightRead)
	if err != nil {
		return err
	}
	e.k.sysReplyRecv(e.core, e.thread(), c.Obj.(*Endpoint))
	return nil
}

// KernelClone invokes Kernel_Clone: srcSlot must hold a Kernel_Image
// capability with the clone right, memSlot a Kernel_Memory capability.
// The new image's capability (with clone right) is installed in the
// caller's CSpace and its slot returned. The cycle cost is charged to
// the calling core (Table 7 measures it).
func (e *Env) KernelClone(srcSlot, memSlot int) (int, error) {
	t := e.thread()
	src, err := t.Proc.CSpace.Lookup(srcSlot, CapKernelImage, RightClone)
	if err != nil {
		return 0, err
	}
	mem, err := t.Proc.CSpace.Lookup(memSlot, CapKernelMemory, RightWrite)
	if err != nil {
		return 0, err
	}
	e.k.syscallEnter(e.core, t, srcSlot, sysTextClone, sysTextCloneLen)
	start := e.Now()
	img, err := e.k.Clone(e.core, src.Obj.(*Image), mem.Obj.(*KernelMemory))
	if err != nil {
		return 0, err
	}
	e.k.Metrics.LastCloneCycles = e.Now() - start
	e.k.syscallExit(e.core)
	slot := t.Proc.CSpace.Install(Capability{Type: CapKernelImage, Rights: RightRead | RightWrite | RightClone, Obj: img})
	return slot, nil
}

// KernelDestroy destroys the Kernel_Image behind slot (§4.4).
func (e *Env) KernelDestroy(slot int) error {
	t := e.thread()
	c, err := t.Proc.CSpace.Lookup(slot, CapKernelImage, RightWrite)
	if err != nil {
		return err
	}
	start := e.Now()
	if err := e.k.DestroyImage(e.core, c.Obj.(*Image)); err != nil {
		return err
	}
	e.k.Metrics.LastDestroyCycles = e.Now() - start
	t.Proc.CSpace.Delete(slot)
	return nil
}

// KernelSetInt associates the IRQ line behind irqSlot with the kernel
// image behind imgSlot (Kernel_SetInt, §4.2).
func (e *Env) KernelSetInt(irqSlot, imgSlot int) error {
	t := e.thread()
	irq, err := t.Proc.CSpace.Lookup(irqSlot, CapIRQHandler, RightWrite)
	if err != nil {
		return err
	}
	img, err := t.Proc.CSpace.Lookup(imgSlot, CapKernelImage, RightWrite)
	if err != nil {
		return err
	}
	e.k.SetInt(irq.Obj.(*IRQHandler).Line, img.Obj.(*Image))
	return nil
}

// ArmTimer programs the device timer behind the IRQ_Handler capability
// to fire at absolute cycle time `at` (the Figure 6 trojan primitive).
func (e *Env) ArmTimer(irqSlot int, at uint64) error {
	c, err := e.thread().Proc.CSpace.Lookup(irqSlot, CapIRQHandler, RightWrite)
	if err != nil {
		return err
	}
	h := c.Obj.(*IRQHandler)
	if h.Timer == nil {
		return fmt.Errorf("kernel: IRQ line %d has no timer device", h.Line)
	}
	h.Timer.Arm(at)
	return nil
}

// NextTick returns the absolute cycle time of this core's next
// preemption-timer interrupt. Real attackers learn this by observing
// preemptions; exposing it keeps trojan programs simple.
func (e *Env) NextTick() uint64 { return e.k.cores[e.core].nextTick }

// TimesliceCycles returns the preemption period.
func (e *Env) TimesliceCycles() uint64 { return e.k.Cfg.TimesliceCycles }
