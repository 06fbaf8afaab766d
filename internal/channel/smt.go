package channel

import (
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/mi"
)

// RunSMTChannel runs an L1-D covert channel between two hyperthreads of
// one physical core. The spec's platform must be SMT-capable (e.g.
// hw.HaswellSMT()); the sender runs on logical core 0 and the receiver
// on its sibling. The channel stays open under EVERY scenario — flushing
// and colouring act at domain switches and in physically indexed caches,
// neither of which separates concurrent hyperthreads.
func RunSMTChannel(s Spec) (*mi.Dataset, error) {
	s = s.withDefaults()
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	sibling := s.Platform.Cores / 2
	h := sys.K.M.Plat.Hierarchy
	pages := h.L1D.Size / memory.PageSize
	sbuf, err := NewProbeBuffer(sys, 0, senderBufBase, pages)
	if err != nil {
		return nil, err
	}
	rbuf, err := NewProbeBuffer(sys, 1, receiverBufBase, pages)
	if err != nil {
		return nil, err
	}
	// The sender modulates its L1-D footprint from one hyperthread while
	// the receiver probes its own L1-D-covering buffer concurrently from
	// the sibling. The two logical cores never domain-switch against each
	// other, so there is no point at which the kernel could flush between
	// them — the sharing is concurrent, like a shared cache (paper §2.2
	// category 1, and the reason §3.1.2 demands hyperthreading be
	// disabled or same-domain).
	sLines, rLines := sbuf.AllLines(), rbuf.AllLines()
	sender := newSlotSender(sys, 4, s.Seed, 500, func(e *kernel.Env, sym int) {
		for _, v := range sLines[:len(sLines)*sym/3] {
			e.Load(v)
		}
	})
	recv := newBurstReceiver(sender, s.Samples, receiverWarmup, 500, func(e *kernel.Env) { Probe(e, rLines) })
	// Logical core 0 is stepped first so the sender lands there and the
	// receiver on the sibling.
	return runConcurrent(sys, "smt", []int{0, sibling}, sender, recv)
}
