package kernel

import "timeprotection/internal/trace"

// Kernel text layout: every syscall's handler occupies a distinct region
// of the text segment, so different syscalls have distinct instruction
// cache footprints. With a *shared* kernel image those footprints land
// in cache sets a coloured userland cannot avoid probing — the Figure 3
// covert channel. Cloned images colour the text itself, closing it.
const (
	sysTextEntry      = 0x0000
	sysTextEntryLen   = 256
	sysTextExit       = 0x0200
	sysTextExitLen    = 192
	sysTextTick       = 0x1000
	sysTextTickLen    = 1536
	sysTextIRQ        = 0x2000
	sysTextIRQLen     = 1024
	sysTextSignal     = 0x4000
	sysTextSignalLen  = 1536
	sysTextPoll       = 0x6000
	sysTextPollLen    = 1024
	sysTextSetPrio    = 0x8000
	sysTextSetPrioLen = 2048
	sysTextCall       = 0xA000
	sysTextCallLen    = 1280
	sysTextReply      = 0xC000
	sysTextReplyLen   = 1280
	sysTextClone      = 0xE000
	sysTextCloneLen   = 3072
	sysTextYield      = 0x10000
	sysTextYieldLen   = 512
)

// SyscallTextRanges returns the (offset, length) text regions executed
// by the syscalls the Figure 3 sender uses (Signal, TCB_SetPriority,
// Poll), plus the common entry/exit stubs — the footprint an attacker
// calibrates its LLC attack sets against.
func SyscallTextRanges() [][2]uint64 {
	return [][2]uint64{
		{sysTextEntry, sysTextEntryLen},
		{sysTextExit, sysTextExitLen},
		{sysTextSignal, sysTextSignalLen},
		{sysTextSetPrio, sysTextSetPrioLen},
		{sysTextPoll, sysTextPollLen},
	}
}

// syscallEnter charges the common entry path: trap, entry stub, stack
// setup, cap lookup for slot (when >= 0), then the handler's text.
func (k *Kernel) syscallEnter(core int, t *TCB, slot int, textOff, textLen uint64) {
	cs := k.cores[core]
	k.Metrics.Syscalls++
	k.emit(core, trace.KernelSyscall, textOff, 0)
	k.kSpin(core, trapEntryCost)
	k.execText(core, cs.curImage, sysTextEntry, sysTextEntryLen)
	k.touchStack(core, cs.curImage, 2, true)
	if slot >= 0 && t.Proc != nil {
		k.kDataObj(core, t.Proc.cnodeAddr+uint64(slot)*32, false)
	}
	k.execText(core, cs.curImage, textOff, textLen)
	k.kDataObj(core, t.ObjAddr, false)
}

// syscallExit charges the return-to-user path.
func (k *Kernel) syscallExit(core int) {
	cs := k.cores[core]
	k.execText(core, cs.curImage, sysTextExit, sysTextExitLen)
	k.kSpin(core, trapExitCost)
}

// sysSignal implements Signal on a notification: bump the word and wake
// a blocked waiter if there is one.
func (k *Kernel) sysSignal(core int, t *TCB, n *Notification) {
	k.syscallEnter(core, t, -1, sysTextSignal, sysTextSignalLen)
	k.kDataObj(core, n.ObjAddr, true)
	n.Word++
	if w := n.waiter; w != nil {
		n.waiter = nil
		w.waitingNotif = nil
		n.Word = 0
		k.kDataObj(core, w.ObjAddr, true)
		w.State = StateReady
		k.sched.Enqueue(core, w)
	}
	k.syscallExit(core)
}

// sysWait implements a blocking Wait on a notification: consume the word
// if set, otherwise block until signalled.
func (k *Kernel) sysWait(core int, t *TCB, n *Notification) {
	cs := k.cores[core]
	k.syscallEnter(core, t, -1, sysTextPoll, sysTextPollLen)
	k.kDataObj(core, n.ObjAddr, true)
	if n.Word > 0 {
		n.Word = 0
		k.syscallExit(core)
		return
	}
	t.State = StateBlockedRecv
	n.waiter = t
	t.waitingNotif = n
	cs.cur = nil
	k.syscallExit(core)
}

// sysPoll implements a non-blocking Poll on a notification, returning
// and clearing its word.
func (k *Kernel) sysPoll(core int, t *TCB, n *Notification) uint64 {
	k.syscallEnter(core, t, -1, sysTextPoll, sysTextPollLen)
	k.kDataObj(core, n.ObjAddr, true)
	w := n.Word
	n.Word = 0
	k.syscallExit(core)
	return w
}

// sysSetPriority implements TCB_SetPriority.
func (k *Kernel) sysSetPriority(core int, t, target *TCB, prio int) error {
	if prio < 0 || prio >= NumPriorities {
		return ErrOutOfBounds
	}
	k.syscallEnter(core, t, -1, sysTextSetPrio, sysTextSetPrioLen)
	k.kDataObj(core, target.ObjAddr, true)
	if target.State == StateReady {
		k.sched.Remove(target)
		target.Prio = prio
		k.sched.Enqueue(core, target)
	} else {
		target.Prio = prio
	}
	k.syscallExit(core)
	return nil
}

// sysSuspend removes target from scheduling until resumed.
func (k *Kernel) sysSuspend(core int, t, target *TCB) {
	cs := k.cores[core]
	k.syscallEnter(core, t, -1, sysTextSetPrio, sysTextSetPrioLen)
	k.kDataObj(core, target.ObjAddr, true)
	k.sched.Remove(target)
	if n := findNotificationWaiterOn(target); n != nil {
		n.waiter = nil
	}
	target.State = StateSuspended
	if cs.cur == target {
		cs.cur = nil
	}
	k.syscallExit(core)
}

// findNotificationWaiterOn is a placeholder hook: suspension of a thread
// blocked on a notification must clear the waiter slot. Wired through
// the TCB's blocking record.
func findNotificationWaiterOn(t *TCB) *Notification { return t.waitingNotif }

// sysResume makes a suspended target runnable again.
func (k *Kernel) sysResume(core int, t, target *TCB) {
	k.syscallEnter(core, t, -1, sysTextSetPrio, sysTextSetPrioLen)
	k.kDataObj(core, target.ObjAddr, true)
	if target.State == StateSuspended {
		target.State = StateReady
		k.sched.Enqueue(core, target)
	}
	k.syscallExit(core)
}

// sysIRQAck re-enables a delivered interrupt line (IRQHandler_Ack).
func (k *Kernel) sysIRQAck(core int, t *TCB, line int) {
	cs := k.cores[core]
	k.syscallEnter(core, t, -1, sysTextIRQ, sysTextIRQLen/2)
	k.kDataShared(core, k.Shared.IRQStateAddr(line), true)
	if b := k.irqBind[line]; b != nil {
		b.awaitingAck = false
		// Unmask only if the line belongs to the current kernel (or is
		// unpartitioned); otherwise the next domain switch restores it.
		if b.img == nil || b.img == cs.curImage || k.Cfg.Scenario != ScenarioProtected {
			k.M.IRQ.Unmask(line)
		}
	}
	k.syscallExit(core)
}

// sysYield gives up the remainder of the slice to the next ready thread.
func (k *Kernel) sysYield(core int, t *TCB) {
	cs := k.cores[core]
	k.syscallEnter(core, t, -1, sysTextYield, sysTextYieldLen)
	t.State = StateReady
	k.sched.Enqueue(core, t)
	cs.cur = nil
	if next := k.sched.PickNext(core, k.M.Cores[core].Now); next != nil {
		k.dispatch(core, next)
	}
	k.syscallExit(core)
}

// sysCall implements the IPC fastpath: if a receiver waits on ep, switch
// directly to it (it inherits the remaining slice); otherwise the caller
// blocks in ep's send queue. Crossing kernel images performs the stack
// switch but — deliberately, matching the paper's inter-colour IPC
// microbenchmark — no flushing or padding.
func (k *Kernel) sysCall(core int, t *TCB, ep *Endpoint) {
	cs := k.cores[core]
	k.syscallEnter(core, t, -1, sysTextCall, sysTextCallLen)
	k.kDataObj(core, ep.ObjAddr, true)
	if len(ep.recvQueue) == 0 {
		t.State = StateBlockedRecv
		t.waitingOn = ep
		ep.sendQueue = append(ep.sendQueue, t)
		cs.cur = nil
		k.syscallExit(core)
		return
	}
	server := ep.recvQueue[0]
	ep.recvQueue = ep.recvQueue[1:]
	t.State = StateBlockedReply
	server.replyTo = t
	k.kDataObj(core, server.ObjAddr, true)
	// Direct switch; crossing kernel images performs the stack switch
	// inside dispatch.
	k.dispatch(core, server)
	k.syscallExit(core)
}

// sysRecv blocks the caller on ep (or completes a pending send).
func (k *Kernel) sysRecv(core int, t *TCB, ep *Endpoint) {
	cs := k.cores[core]
	k.syscallEnter(core, t, -1, sysTextReply, sysTextReplyLen)
	k.kDataObj(core, ep.ObjAddr, true)
	if len(ep.sendQueue) > 0 {
		client := ep.sendQueue[0]
		ep.sendQueue = ep.sendQueue[1:]
		client.State = StateBlockedReply
		client.waitingOn = nil
		t.replyTo = client
		k.syscallExit(core)
		return
	}
	t.State = StateBlockedRecv
	ep.recvQueue = append(ep.recvQueue, t)
	cs.cur = nil
	k.syscallExit(core)
}

// sysReplyRecv replies to the caller's client (direct-switching back to
// it) and atomically waits on ep for the next request.
func (k *Kernel) sysReplyRecv(core int, t *TCB, ep *Endpoint) {
	cs := k.cores[core]
	k.syscallEnter(core, t, -1, sysTextReply, sysTextReplyLen)
	k.kDataObj(core, ep.ObjAddr, true)
	client := t.replyTo
	t.replyTo = nil
	t.State = StateBlockedRecv
	ep.recvQueue = append(ep.recvQueue, t)
	if client != nil {
		k.kDataObj(core, client.ObjAddr, true)
		k.dispatch(core, client)
	} else {
		cs.cur = nil
	}
	k.syscallExit(core)
}
