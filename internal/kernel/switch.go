package kernel

import (
	"timeprotection/internal/memory"
	"timeprotection/internal/trace"
)

// Fixed pipeline costs (cycles) for mode transitions and privileged
// operations that are not memory traffic.
const (
	trapEntryCost    = 120 // syscall/interrupt entry: mode switch, save
	trapExitCost     = 90  // return to user
	tlbFlushOpCost   = 150 // invpcid / TLBIALL issue cost
	bpFlushOpCost    = 100 // IBC MSR write / BPIALL
	lineInvCost      = 2   // per-line set/way invalidate (Arm DCCISW step)
	timerProgramCost = 60  // reprogramming the preemption timer
	maskProbeCost    = 80  // probing one potentially latched IRQ (x86)
)

// RunCore executes core until its cycle counter reaches `until`.
func (k *Kernel) RunCore(core int, until uint64) {
	for k.stepOnce(core, until) {
	}
}

// RunCores co-schedules several cores by always advancing the one whose
// clock is furthest behind — the deterministic analogue of truly
// concurrent execution against the shared cache levels.
func (k *Kernel) RunCores(cores []int, until uint64) {
	for {
		best, bestNow := -1, uint64(0)
		for _, c := range cores {
			now := k.M.Cores[c].Now
			if now < until && (best < 0 || now < bestNow) {
				best, bestNow = c, now
			}
		}
		if best < 0 {
			return
		}
		k.stepOnce(best, until)
	}
}

// stepOnce advances core by one scheduling decision or program step,
// returning false once the core's clock has passed `until`.
func (k *Kernel) stepOnce(core int, until uint64) bool {
	c := k.M.Cores[core]
	cs := k.cores[core]
	if c.Now >= until {
		return false
	}
	k.M.PollDevices(c.Now)
	if line, ok := k.M.IRQ.NextDeliverable(core); ok {
		k.handleIRQ(core, line)
		return true
	}
	if c.Now >= cs.nextTick {
		k.tick(core)
		return true
	}
	t := cs.cur
	if t == nil {
		t = k.sched.PickNext(core, c.Now)
		if t != nil {
			k.dispatch(core, t)
			k.stampDomain(core)
			return true
		}
		// Idle: fast-forward to the next event the core can observe.
		next := cs.nextTick
		if fire, ok := k.nextDeviceFire(); ok && fire < next && fire > c.Now {
			next = fire
		}
		if next > until {
			next = until
		}
		if next <= c.Now {
			next = c.Now + 1
		}
		c.Now = next
		return true
	}
	before := c.Now
	if !t.Program.Step(cs.env) {
		t.State = StateDone
		k.sched.Remove(t)
		if cs.cur == t {
			cs.cur = nil
		}
	}
	if c.Now == before {
		// No instruction executes in zero time; charging a cycle also
		// keeps a do-nothing program from wedging the simulation.
		c.Now++
	}
	// Scheduling-context enforcement: book the step against the thread's
	// budget; once exhausted it is throttled until its period rolls over.
	if t.SC != nil && t.State == StateRunning {
		if !t.SC.charge(c.Now, c.Now-before) {
			t.State = StateReady
			t.sleepUntil = t.SC.periodStart + t.SC.PeriodCycles
			k.sched.Enqueue(core, t)
			if cs.cur == t {
				cs.cur = nil
			}
		}
	}
	return true
}

// nextDeviceFire returns the earliest armed device-timer deadline.
func (k *Kernel) nextDeviceFire() (uint64, bool) {
	return k.M.NextDeviceFire()
}

// dispatch makes t the current thread on core, charging the ordinary
// thread-switch costs (pointer block, TCB, ASID table). When t belongs
// to a different kernel image, the kernel switch happens here: mask
// interrupts, copy and switch the stack, update the running bitmap, and
// re-establish the new image's interrupt partition. (The kernel is
// mapped at a fixed virtual address, so text and static data switch
// implicitly with the page-directory pointer, §4.3.)
func (k *Kernel) dispatch(core int, t *TCB) {
	cs := k.cores[core]
	if t.Image != cs.curImage {
		k.Metrics.KernelSwitches++
		k.emit(core, trace.KernelSwitch, uint64(cs.curImage.ID), uint64(t.Image.ID))
		if k.Cfg.Scenario == ScenarioProtected {
			k.maskInterrupts(core)
		}
		k.switchStack(core, cs.curImage, t.Image)
		cs.curImage.runningOn &^= 1 << uint(core)
		cs.curImage = t.Image
		if k.Cfg.Scenario == ScenarioProtected {
			k.unmaskFor(core, t.Image)
		}
	}
	cs.cur = t
	t.State = StateRunning
	cs.curDomain = t.Domain
	k.kDataShared(core, k.Shared.PointersAddr(), true)
	k.kDataObj(core, t.ObjAddr, false)
	if t.Proc != nil {
		cs.curASID = t.Proc.AS.ASID()
		k.kDataShared(core, k.Shared.ASIDTableAddr(cs.curASID), false)
	}
	t.Image.runningOn |= 1 << uint(core)
}

// tick handles the preemption-timer interrupt: the 12-step sequence of
// §4.3. Steps marked "kernel-switch only" in the paper run when the next
// thread belongs to a different kernel image; the mitigation suite
// (mask/flush/prefetch/pad) runs on every *domain* switch according to
// the configured scenario.
func (k *Kernel) tick(core int) {
	cs := k.cores[core]
	img := cs.curImage
	// The padding reference is the *scheduled* preemption time, not the
	// handler entry: interrupt-delivery latency depends on what the
	// previous domain was executing, and padding must hide that too
	// (the paper's worst-case-handling-time provision, §4.3).
	cs.tickStart = cs.nextTick
	k.Metrics.Ticks++
	k.emit(core, trace.KernelTick, uint64(cs.curDomain), 0)

	// Step 1: acquire the kernel lock.
	k.kSpin(core, trapEntryCost)
	k.kDataShared(core, k.Shared.LockAddr(), true)
	// Step 2: process the timer tick normally.
	k.execText(core, img, sysTextTick, sysTextTickLen)
	k.touchStack(core, img, 4, true)
	prev := cs.cur
	if prev != nil {
		prev.State = StateReady
		k.sched.Enqueue(core, prev) // round-robin: back of its queue
		k.kDataObj(core, prev.ObjAddr, true)
	}
	next := k.sched.PickNext(core, k.M.Cores[core].Now)

	domainSwitch := next != nil && next.Domain != cs.curDomain

	if domainSwitch {
		k.Metrics.DomainSwitches++
		k.emit(core, trace.DomainSwitchBegin, uint64(cs.curDomain), uint64(next.Domain))
		switchStart := k.M.Cores[core].Now

		// Steps 3-5: mask interrupts, switch stack and thread context
		// (and implicitly the kernel image); steps 3-4 run inside
		// dispatch when the image changes.
		k.dispatch(core, next)
		// Step 6: release the kernel lock.
		k.kDataShared(core, k.Shared.LockAddr(), true)
		// Step 7 (unmask for the new kernel) also ran inside dispatch.
		// Step 8: flush on-core microarchitectural state.
		switch k.Cfg.Scenario {
		case ScenarioProtected:
			k.emit(core, trace.FlushBegin, 0, 0)
			flushStart := k.M.Cores[core].Now
			k.FlushOnCore(core, cs.curImage)
			k.emit(core, trace.FlushEnd, k.M.Cores[core].Now-flushStart, 0)
		case ScenarioFullFlush:
			k.emit(core, trace.FlushBegin, 1, 0)
			flushStart := k.M.Cores[core].Now
			k.FullFlush(core)
			k.emit(core, trace.FlushEnd, k.M.Cores[core].Now-flushStart, 0)
		}
		// Step 9: prefetch the shared kernel data.
		if k.Cfg.Scenario == ScenarioProtected {
			k.prefetchShared(core)
		}
		// The mitigation suite is complete: kernel work up to here ran on
		// residue of the outgoing domain, from here on the incoming
		// domain owns the core.
		k.stampDomain(core)
		k.Metrics.LastDomainSwitchCycles = k.M.Cores[core].Now - switchStart
		// Step 10: poll the cycle counter for the configured latency.
		// The padding attribute is taken from the kernel active prior to
		// the switch (§4.3).
		if k.Cfg.Scenario == ScenarioProtected && img.PadCycles > 0 {
			deadline := cs.tickStart + img.PadCycles
			if k.M.Cores[core].Now < deadline {
				pad := deadline - k.M.Cores[core].Now
				if k.Tracer != nil {
					k.Tracer.PadCount++
					k.Tracer.PadCycles += pad
					if k.Tracer.EventsEnabled() {
						k.Tracer.Emit(core, trace.Pad, trace.UnitKernel, pad, 0)
					}
				}
				k.M.Cores[core].Now = deadline
			}
		}
		k.Metrics.LastDomainSwitchPadded = k.M.Cores[core].Now - switchStart
		k.emit(core, trace.DomainSwitchEnd,
			k.Metrics.LastDomainSwitchCycles, k.M.Cores[core].Now-cs.tickStart)
	} else {
		// Ordinary same-domain preemption: just switch threads.
		if next != nil {
			k.dispatch(core, next)
		} else {
			cs.cur = nil
		}
	}
	// Step 11: reprogram the timer interrupt. Under the static domain
	// schedule the next tick aligns to the global slot grid so all cores
	// change domains together; otherwise it is one slice from now.
	k.kSpin(core, timerProgramCost)
	if k.Cfg.StrictDomains {
		cs.nextTick = (k.M.Cores[core].Now/k.Cfg.TimesliceCycles + 1) * k.Cfg.TimesliceCycles
	} else {
		cs.nextTick = k.M.Cores[core].Now + k.Cfg.TimesliceCycles
	}
	// Step 12: restore the user stack pointer and return.
	k.kSpin(core, trapExitCost)
}

// activeStackBytes is how much kernel stack is live at a switch point.
// seL4 runs on a strictly bounded stack and the switch happens at a
// shallow, known depth, so only this prefix is copied — which is why the
// paper's inter-colour IPC costs essentially the same as intra-colour.
const activeStackBytes = 64

// switchStack copies the active kernel stack from the old image to the
// new one and updates the stack pointer (§4.3: "switching the stack,
// after copying the present stack to the new one").
func (k *Kernel) switchStack(core int, from, to *Image) {
	lineSize := uint64(k.M.Plat.Hierarchy.L1D.LineSize)
	for off := uint64(0); off < activeStackBytes; off += lineSize {
		k.kAccess(core, from, kStackBase+off, from.stackPA(off), false, false)
		k.kAccess(core, to, kStackBase+off, to.stackPA(off), true, false)
	}
	k.kDataShared(core, k.Shared.PointersAddr(), true)
}

// maskInterrupts masks every routed device line. On a two-level (x86)
// controller it then probes and acknowledges lines that latched during
// the race window (§4.3).
func (k *Kernel) maskInterrupts(core int) {
	lines := k.M.IRQ.Lines()
	if len(lines) == 0 {
		return
	}
	k.M.IRQ.Mask(lines...)
	for _, l := range lines {
		k.kDataShared(core, k.Shared.IRQStateAddr(l), true)
	}
	if k.M.Plat.TwoLevelIRQ {
		for range k.M.IRQ.ProbeLatched(core) {
			k.kSpin(core, maskProbeCost)
		}
	}
}

// unmaskFor unmasks the lines belonging to img, plus unpartitioned
// lines (associating an IRQ with no kernel is valid but leaky, §4.2).
// Lines awaiting a user-level acknowledgement stay masked.
func (k *Kernel) unmaskFor(core int, img *Image) {
	for _, l := range k.M.IRQ.Lines() {
		b := k.irqBind[l]
		if b != nil && b.awaitingAck {
			continue
		}
		if b == nil || b.img == nil || b.img == img {
			k.M.IRQ.Unmask(l)
			k.kDataShared(core, k.Shared.IRQStateAddr(l), true)
		}
	}
}

// FlushOnCore is the targeted on-core reset of Requirement 1: L1 caches,
// TLBs and branch predictors, using hardware flushes where the platform
// has them (Arm) and the "manual" buffer walks where it does not (x86).
// The L2/LLC are not flushed — they are partitioned by colouring.
func (k *Kernel) FlushOnCore(core int, img *Image) {
	h := k.M.Hier
	if k.M.Plat.HasHWL1Flush {
		// DCCISW: clean+invalidate by set/way. Cost per line plus the
		// write-back of dirty lines — the dependence the cache-flush
		// channel (Figure 5) modulates until padding hides it.
		valid, dirty := h.L1D(core).Flush()
		k.flushEvent(core, trace.UnitL1D, valid, dirty)
		k.kSpin(core, h.L1D(core).Sets()*h.L1D(core).Ways()*lineInvCost+dirty*h.WritebackLatency())
		// ICIALLU.
		vi, di := h.L1I(core).Flush()
		k.flushEvent(core, trace.UnitL1I, vi, di)
		k.kSpin(core, h.L1I(core).Sets()*h.L1I(core).Ways()*lineInvCost)
	} else {
		k.manualL1DFlush(core, img)
		k.manualL1IFlush(core, img)
	}
	// TLBs (invpcid / TLBIALL).
	h.TLBFlush(core, false)
	k.kSpin(core, tlbFlushOpCost)
	// Branch predictor (IBC / BPIALL).
	h.BTBOf(core).Flush()
	k.flushEvent(core, trace.UnitBTB, 0, 0)
	h.BHBOf(core).Flush()
	k.flushEvent(core, trace.UnitBHB, 0, 0)
	k.kSpin(core, bpFlushOpCost)
}

// manualL1DFlush evicts the entire L1-D by loading a cache-sized buffer
// (x86 has no targeted L1 flush instruction, §4.3). Dirty victim lines
// are written back by the loads themselves, so the cost inherits the
// dirty-line dependence.
func (k *Kernel) manualL1DFlush(core int, img *Image) {
	lineSize := uint64(k.M.Plat.Hierarchy.L1D.LineSize)
	for i, f := range img.flushD {
		for off := uint64(0); off < memory.PageSize; off += lineSize {
			v := kFlushDBase + uint64(i)*memory.PageSize + off
			k.kAccess(core, img, v, f.Addr()+off, false, false)
		}
	}
}

// manualL1IFlush walks a jump chain through an L1-I-sized buffer; each
// chained jump also displaces BTB entries and mispredicts, which is why
// the paper's measured manual-flush cost is dominated by this step.
func (k *Kernel) manualL1IFlush(core int, img *Image) {
	lineSize := uint64(k.M.Plat.Hierarchy.L1I.LineSize)
	for i, f := range img.flushI {
		for off := uint64(0); off < memory.PageSize; off += lineSize {
			v := kFlushIBase + uint64(i)*memory.PageSize + off
			k.kAccess(core, img, v, f.Addr()+off, false, true)
			k.M.Branch(core, v, v+lineSize)
		}
	}
}

// FullFlush performs the maximal architected reset (§5.2 "full flush"):
// the whole cache hierarchy (wbinvd analogue; on Arm, L1 flush plus L2
// clean+invalidate), TLBs and branch predictors.
func (k *Kernel) FullFlush(core int) {
	h := k.M.Hier
	flush := func(c interface {
		Flush() (int, int)
		Sets() int
		Ways() int
	}, u trace.Unit) {
		valid, dirty := c.Flush()
		k.flushEvent(core, u, valid, dirty)
		k.kSpin(core, c.Sets()*c.Ways()*lineInvCost+dirty*h.WritebackLatency())
	}
	flush(h.L1D(core), trace.UnitL1D)
	flush(h.L1I(core), trace.UnitL1I)
	flush(h.L2For(core), trace.UnitL2)
	if h.L3() != nil {
		flush(h.L3(), trace.UnitL3)
	}
	h.TLBFlush(core, false)
	k.kSpin(core, tlbFlushOpCost)
	h.BTBOf(core).Flush()
	k.flushEvent(core, trace.UnitBTB, 0, 0)
	h.BHBOf(core).Flush()
	k.flushEvent(core, trace.UnitBHB, 0, 0)
	k.kSpin(core, bpFlushOpCost)
}

// prefetchShared touches every line of the residual shared kernel data
// so the next kernel exits with that state deterministically resident
// (Requirement 3, switch step 9).
func (k *Kernel) prefetchShared(core int) {
	lines := k.Shared.Lines(k.M.Plat.Hierarchy.L1D.LineSize)
	for _, pa := range lines {
		k.kDataShared(core, pa, false)
	}
	k.emit(core, trace.PrefetchShared, uint64(len(lines)), 0)
}

// handleIRQ services a deliverable device interrupt: acknowledge, charge
// the handler path, signal any bound notification. Time stolen from the
// running thread is the observable of the interrupt channel (Figure 6).
func (k *Kernel) handleIRQ(core int, line int) {
	cs := k.cores[core]
	k.Metrics.IRQsHandled++
	k.emit(core, trace.KernelIRQ, uint64(line), 0)
	k.M.IRQ.Acknowledge(line)
	k.kSpin(core, trapEntryCost)
	k.execText(core, cs.curImage, sysTextIRQ, sysTextIRQLen)
	k.kDataShared(core, k.Shared.CurrentIRQAddr(), true)
	k.kDataShared(core, k.Shared.IRQStateAddr(line), true)
	k.kDataShared(core, k.Shared.IRQHandlerAddr(line), false)
	if b := k.irqBind[line]; b != nil && b.notif != nil {
		k.kDataObj(core, b.notif.ObjAddr, true)
		b.notif.Word++
		if w := b.notif.waiter; w != nil {
			b.notif.waiter = nil
			w.waitingNotif = nil
			b.notif.Word = 0
			w.State = StateReady
			k.sched.Enqueue(core, w)
		}
		// seL4 protocol: the line stays masked until the user-level
		// handler acknowledges it, so an interrupt storm cannot flood
		// the system.
		b.awaitingAck = true
		k.M.IRQ.Mask(line)
	}
	k.touchStack(core, cs.curImage, 2, true)
	k.kSpin(core, trapExitCost)
}
