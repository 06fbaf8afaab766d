package channel

import (
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/mi"
)

// RunBusChannel runs the cross-core interconnect covert channel of
// §2.2: sender and receiver execute *concurrently* on different cores
// and communicate purely through memory-bandwidth contention. Time
// protection cannot close this channel — there is no state to flush or
// colour — which is exactly why the paper's threat model must exclude
// concurrent covert channels until hardware supports bandwidth
// partitioning. With mba=true an Intel-MBA-style approximate per-core
// throttle is enabled; its lagging enforcement still leaks (§2.3).
func RunBusChannel(s Spec, mba bool) (*mi.Dataset, error) {
	s = s.withDefaults()
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	// The interconnect: 8 DRAM slots per 1000-cycle window.
	bus := hw.NewMemoryBus(1000, 4, 80)
	if mba {
		bus.SetMBA(2, 150)
	}
	sys.K.M.AttachBus(bus)

	// Streaming buffers far larger than any cache share, so every access
	// reaches DRAM. Strided to defeat the prefetcher.
	mkLines := func(dom int, base uint64, pages int) ([]uint64, error) {
		buf, err := NewProbeBuffer(sys, dom, base, pages)
		if err != nil {
			return nil, err
		}
		all := buf.AllLines()
		var out []uint64
		for i := 0; i < len(all); i += 5 {
			out = append(out, all[i])
		}
		return out, nil
	}
	llc := sys.K.M.Hier.LLC()
	pages := 2 * llc.Sets() * llc.LineSize() * llc.Ways() / memory.PageSize
	if pages > sys.K.M.Plat.RAMFrames/4 {
		pages = sys.K.M.Plat.RAMFrames / 4
	}
	sLines, err := mkLines(0, senderBufBase, pages)
	if err != nil {
		return nil, err
	}
	rLines, err := mkLines(1, receiverBufBase, pages)
	if err != nil {
		return nil, err
	}
	// The sender modulates its memory-bandwidth consumption (paper §2.2:
	// "the sender encodes information into its bandwidth consumption"):
	// 0..3 bursts of 16 streaming accesses per step. The receiver senses
	// the bandwidth left by timing a fixed burst of its own.
	sPos, rPos := 0, 0
	sender := newSlotSender(sys, 4, s.Seed, 2000, func(e *kernel.Env, sym int) {
		for i := 0; i < 16*sym; i++ {
			e.Load(sLines[sPos%len(sLines)])
			sPos++
		}
	})
	// The streaming receiver's caches drift toward steady state over many
	// bursts; discard generously or the drift correlates with the
	// sender's slot structure and inflates the estimate.
	recv := newBurstReceiver(sender, s.Samples, 64, 1500, func(e *kernel.Env) {
		for i := 0; i < 48; i++ {
			e.Load(rLines[rPos%len(rLines)])
			rPos++
		}
	})
	return runConcurrent(sys, "bus", []int{0, 1}, sender, recv)
}
