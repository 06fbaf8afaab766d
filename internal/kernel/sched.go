package kernel

// NumPriorities is the number of scheduler priorities (seL4 has 256).
const NumPriorities = 256

// Scheduler is the global run queue: per-priority FIFO queues plus a
// bitmap for constant-time highest-priority lookup. The *data structure*
// (head pointers, bitmap, decision word) lives in the shared static
// region — it is part of the ~9.5 KiB two kernels share — so every
// operation charges accesses to those addresses on the executing core.
type Scheduler struct {
	k     *Kernel
	ready [NumPriorities][]*TCB
}

func newScheduler(k *Kernel) *Scheduler { return &Scheduler{k: k} }

// chargeQueueOp charges the cache traffic of touching one priority's
// queue head and the bitmap word covering it.
func (s *Scheduler) chargeQueueOp(core, prio int, write bool) {
	r := s.k.Shared
	if write {
		s.k.kDataShared(core, r.ReadyQueueAddr(prio), true)
		s.k.kDataShared(core, r.BitmapAddr(prio), true)
	} else {
		s.k.kDataShared(core, r.ReadyQueueAddr(prio), false)
		s.k.kDataShared(core, r.BitmapAddr(prio), false)
	}
}

// Enqueue appends t to its priority queue.
func (s *Scheduler) Enqueue(core int, t *TCB) {
	if t.State == StateReady {
		for _, q := range s.ready[t.Prio] {
			if q == t {
				return // already queued
			}
		}
	}
	t.State = StateReady
	s.ready[t.Prio] = append(s.ready[t.Prio], t)
	s.chargeQueueOp(core, t.Prio, true)
}

// PickNext dequeues the highest-priority runnable thread, skipping
// threads sleeping until a later tick. Under StrictDomains only threads
// of the current global slot's domain are eligible — a core never
// donates a foreign domain's slot (the §3.1.1 schedule). Returns nil
// when nothing is runnable (the idle thread runs).
func (s *Scheduler) PickNext(core int, now uint64) *TCB {
	s.k.kDataShared(core, s.k.Shared.SchedDecisionAddr(), false)
	slotDom, haveSlot := 0, false
	if s.k.Cfg.StrictDomains {
		slotDom, haveSlot = s.k.slotDomain(now)
	}
	for p := NumPriorities - 1; p >= 0; p-- {
		q := s.ready[p]
		for i, t := range q {
			if t.sleepUntil > now {
				continue
			}
			if t.SC != nil && t.SC.exhausted(now) {
				continue
			}
			if haveSlot && t.Domain != slotDom {
				continue
			}
			s.ready[p] = dequeueAt(q, i)
			s.chargeQueueOp(core, p, true)
			t.State = StateRunning
			return t
		}
	}
	return nil
}

// Remove deletes t from the run queue wherever it is (destruction path;
// uncharged, the destroy path charges its own costs).
func (s *Scheduler) Remove(t *TCB) {
	q := s.ready[t.Prio]
	for i, x := range q {
		if x == t {
			s.ready[t.Prio] = dequeueAt(q, i)
			return
		}
	}
}

// dequeueAt removes q[i] in place, preserving FIFO order and the queue's
// capacity: dequeue/enqueue is the per-timeslice hot path, and rebuilding
// the slice on every PickNext made the scheduler the simulator's top
// allocator. The vacated tail slot is cleared so the queue does not
// retain a dead TCB.
func dequeueAt(q []*TCB, i int) []*TCB {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}
