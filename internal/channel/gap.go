package channel

import (
	"fmt"

	"timeprotection/internal/core"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/mi"
	"timeprotection/internal/snapshot"
)

// GapObserver is the receiver of §5.3.4/§5.3.5: it watches its progress
// through the cycle counter in fine-grained steps. "Online" time is the
// uninterrupted period it observes, "offline" time the length of a jump
// (preemption). The cache-flush channel modulates the offline time via
// the kernel's dirty-line write-backs; the interrupt channel splits the
// online time with a trojan-programmed timer.
type GapObserver struct {
	sender *Sender

	// Online / Offline collect (symbol, duration) pairs at each slice
	// boundary; FirstOnline collects the time from slice start to the
	// first sub-slice interruption (or the full slice when none).
	Online, Offline, FirstOnline *mi.Dataset

	target      int
	granularity int
	irqGap      uint64

	started     bool
	lastNow     uint64
	sliceStart  uint64
	interrupted bool
	warmup      int
}

// NewGapObserver builds an observer collecting `target` samples per
// dataset. granularity is the spin between cycle-counter reads; irqGap
// is the smallest jump classified as an in-slice interruption.
func NewGapObserver(sender *Sender, target, granularity int, irqGap uint64) *GapObserver {
	return &GapObserver{
		sender:      sender,
		Online:      &mi.Dataset{},
		Offline:     &mi.Dataset{},
		FirstOnline: &mi.Dataset{},
		target:      target,
		granularity: granularity,
		irqGap:      irqGap,
		warmup:      receiverWarmup,
	}
}

// Done reports whether every dataset has its samples.
func (g *GapObserver) Done() bool {
	return g.Online.N() >= g.target && g.FirstOnline.N() >= g.target
}

// Step implements kernel.Program.
func (g *GapObserver) Step(e *kernel.Env) bool {
	now := e.Now()
	if !g.started {
		g.started = true
		g.sliceStart, g.lastNow = now, now
		e.Spin(g.granularity)
		g.lastNow = e.Now()
		return true
	}
	gap := now - g.lastNow
	switch {
	case gap > e.TimesliceCycles()/2:
		// Slice boundary. Discard the warm-up boundaries, then record:
		// the offline period was the sender's slice plus both switches;
		// attribute it to the sender's just-finished symbol (Current —
		// the sender ran during the gap and chose it then).
		if g.warmup > 0 {
			g.warmup--
		} else {
			if g.sender.Sent() && g.Online.N() < g.target {
				g.Online.Add(g.sender.Current(), float64(g.lastNow-g.sliceStart))
				g.Offline.Add(g.sender.Current(), float64(gap))
			}
			// A slice with no in-slice interruption contributes its full
			// online time to FirstOnline, attributed to the symbol armed
			// in the slice before it (Previous: the sender has since
			// started a new slice).
			if !g.interrupted && g.sender.SentTwice() && g.FirstOnline.N() < g.target {
				g.FirstOnline.Add(g.sender.Previous(), float64(g.lastNow-g.sliceStart))
			}
		}
		g.sliceStart = now
		g.interrupted = false
	case gap > g.irqGap && g.irqGap > 0:
		// In-slice interruption (interrupt handler stole cycles).
		if !g.interrupted && g.sender.Sent() && g.FirstOnline.N() < g.target {
			g.FirstOnline.Add(g.sender.Current(), float64(g.lastNow-g.sliceStart))
		}
		g.interrupted = true
	}
	e.Spin(g.granularity)
	g.lastNow = e.Now()
	return true
}

// FlushChannelResult carries the two observables of Table 4.
type FlushChannelResult struct {
	Online  *mi.Dataset
	Offline *mi.Dataset
}

// RunFlushChannel runs the cache-flush latency channel (§5.3.4): the
// sender varies the number of dirty cache sets in each slice, modulating
// the L1 flush cost on the following domain switch; the receiver
// observes its online/offline times. Padding (spec.PadMicros) closes it.
// The scenario is forced to Protected — the channel is a property of the
// flushing defence itself. Untraced hook-free runs are memoized
// process-wide (see memo.go).
func RunFlushChannel(s Spec) (*FlushChannelResult, error) {
	if s.memoizable() {
		r, err := snapshot.Memo(snapshot.KeyOf("channel", "flush", s), func() (*FlushChannelResult, error) {
			r, err := runFlushChannel(s)
			if err != nil {
				return nil, err
			}
			return &FlushChannelResult{Online: r.Online.Clone(), Offline: r.Offline.Clone()}, nil
		})
		if err != nil {
			return nil, err
		}
		return &FlushChannelResult{Online: r.Online.Clone(), Offline: r.Offline.Clone()}, nil
	}
	return runFlushChannel(s)
}

func runFlushChannel(s Spec) (*FlushChannelResult, error) {
	s = s.withDefaults()
	s.Scenario = kernel.ScenarioProtected
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	sLines, err := flushSenderLines(sys)
	if err != nil {
		return nil, err
	}
	symbols := 4
	sender := NewSender(symbols, s.Seed, func(e *kernel.Env, sym int) {
		// Dirty sym/(symbols-1) of the L1-D: stores, so the switch must
		// write the lines back.
		n := len(sLines) * sym / (symbols - 1)
		StoreLines(e, sLines[:n])
		e.Spin(64)
	})
	obs := NewGapObserver(sender, s.Samples, 40, 0)
	if _, err := sys.Spawn(0, "sender", 10, sender); err != nil {
		return nil, err
	}
	if _, err := sys.Spawn(1, "observer", 10, obs); err != nil {
		return nil, err
	}
	newInteractive(sys, obs.Online, obs.Done, timeShared, gapChunkCap(s.Samples), false, s.Samples).run(nil, nil)
	return &FlushChannelResult{Online: obs.Online, Offline: obs.Offline}, nil
}

// flushSenderLines maps the flush-channel sender's L1-D-sized buffer in
// domain 0 and returns every line of it.
func flushSenderLines(sys *core.System) ([]uint64, error) {
	sbuf, err := NewProbeBuffer(sys, 0, senderBufBase, sys.K.M.Plat.Hierarchy.L1D.Size/memory.PageSize)
	if err != nil {
		return nil, err
	}
	return sbuf.AllLines(), nil
}

// RunInterruptChannel runs the timer-interrupt channel (§5.3.5): the
// trojan programs its timer to fire a symbol-dependent fraction into the
// spy's slice; the spy's first online period reveals the symbol. With
// partition=true the line is bound to the trojan's kernel image
// (Kernel_SetInt) and delivery is deferred to the trojan's own slices.
// Untraced hook-free runs are memoized process-wide (see memo.go).
func RunInterruptChannel(s Spec, partition bool) (*mi.Dataset, error) {
	return memoDataset(s, fmt.Sprintf("interrupt|%t", partition), func() (*mi.Dataset, error) {
		x, err := PrepareInterruptChannel(s, partition)
		if err != nil {
			return nil, err
		}
		return x.Run()
	})
}

// PrepareInterruptChannel builds the interrupt-timing channel ready to
// be stepped. Unlike the receiver-driven channels it caps iterations at
// the one-shot loop's sample-proportional bound and reports whatever
// the spy observed without a starvation error.
func PrepareInterruptChannel(s Spec, partition bool) (*Interactive, error) {
	s = s.withDefaults()
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	const line = 11
	irqSlot := sys.NewIRQ(0, line, 0, partition)
	symbols := 5
	slice := sys.Timeslice()
	sender := NewSender(symbols, s.Seed, nil)
	sender.Act = func(e *kernel.Env, sym int) {
		// Fire (30 + 10*sym)% into the spy's upcoming slice — the scaled
		// analogue of the paper's 13-17 ms timer against a 10 ms tick.
		// The trojan then busy-waits out its slice (the paper's trojan
		// sleeps; spinning is timing-equivalent here and keeps the
		// global scheduler from donating the slice remainder).
		fire := e.NextTick() + slice*uint64(30+10*sym)/100
		e.ArmTimer(irqSlot, fire)
	}
	obs := NewGapObserver(sender, s.Samples, 30, 200)
	if _, err := sys.Spawn(0, "trojan", 10, sender); err != nil {
		return nil, err
	}
	if _, err := sys.Spawn(1, "spy", 10, obs); err != nil {
		return nil, err
	}
	done := func() bool { return obs.FirstOnline.N() >= s.Samples }
	return newInteractive(sys, obs.FirstOnline, done, timeShared, gapChunkCap(s.Samples), false, s.Samples), nil
}
