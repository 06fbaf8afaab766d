package channel

import (
	"fmt"

	"timeprotection/internal/core"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/mi"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// Resource identifies the microarchitectural state an intra-core channel
// targets (Table 3).
type Resource int

// Targeted resources.
const (
	L1D Resource = iota
	L1I
	L2
	TLB
	BTB
	BHB
)

var resourceNames = [...]string{"L1-D", "L1-I", "L2", "TLB", "BTB", "BHB"}

func (r Resource) String() string { return resourceNames[r] }

// Resources lists all intra-core channel targets in Table 3 order for
// the platform (the Arm table has no private-L2 row: its L2 is the LLC).
func Resources(plat hw.Platform) []Resource {
	if plat.Hierarchy.L2Private {
		return []Resource{L1D, L1I, TLB, BTB, BHB, L2}
	}
	return []Resource{L1D, L1I, TLB, BTB, BHB}
}

// MaxPadMicros bounds switch padding at one second: four orders of
// magnitude above the paper's 58.8/62.5 µs pads. Its cycle count (3.4e9
// on Haswell, 8e8 on Sabre) fits a uint64 with room for billions of
// padded switches before a core's clock could overflow; an unbounded
// pad past about 5.4e15 µs would make the float-to-uint64 conversion in
// Platform.MicrosToCycles implementation-defined. Front ends that take
// a pad from a user (tpattack -pad, a session's pad_micros) reject
// anything above it.
const MaxPadMicros = 1e6

// Spec configures one channel experiment.
type Spec struct {
	Platform hw.Platform
	Scenario kernel.Scenario
	// Samples is the number of (symbol, measurement) pairs to collect.
	Samples int
	// TimesliceMicros overrides the 100 us default slice.
	TimesliceMicros float64
	// PadMicros configures switch padding (protected scenario); at
	// most MaxPadMicros.
	PadMicros float64
	// Seed drives the sender's symbol sequence.
	Seed int64
	// DisablePrefetcher models the §5.3.2 ablation: protected scenario
	// with the data prefetcher off (MSR 0x1A4).
	DisablePrefetcher bool
	// ConfigureSystem, when set, runs after the system is built and
	// before any program is spawned — the hook for alternative hardware
	// mechanisms (CAT way masks, bus throttles, SMT setup).
	ConfigureSystem func(*core.System)
	// FuzzyGrainCycles quantises the attacker-visible clock (footnote-4
	// countermeasure study). Zero = precise.
	FuzzyGrainCycles uint64
	// Tracer attaches a machine-wide observability sink to the system
	// the channel runs on (nil = tracing disabled).
	Tracer *trace.Sink
	// ForkWithEvents forks the booted machine from the snapshot cache
	// even when Tracer retains events (normally such runs boot cold so
	// the ring holds the boot too — see snapshot.ForkForStreaming). The
	// session layer sets it: live consumers only observe post-fork
	// events, and create latency matters there.
	ForkWithEvents bool
}

// withDefaults fills zero fields. Seed is not defaulted: seed 0 is a
// valid seed, and the conventional 42 lives in the entry points' flag
// and option declarations (experiment drivers always forward cfg.Seed).
func (s Spec) withDefaults() Spec {
	if s.Samples == 0 {
		s.Samples = 200
	}
	return s
}

// buildSystem assembles the two-domain single-core system all intra-core
// channels run on: domain 0 hosts the sender, domain 1 the receiver. It
// forks the booted system from the snapshot cache; the prefetcher
// ablation and ConfigureSystem hook mutate only the private fork.
func buildSystem(s Spec) (*core.System, error) {
	boot := snapshot.NewSystem
	if s.ForkWithEvents {
		boot = snapshot.ForkForStreaming
	}
	sys, err := boot(core.Options{
		Platform:              s.Platform,
		Scenario:              s.Scenario,
		Domains:               2,
		TimesliceMicros:       s.TimesliceMicros,
		PadMicros:             s.PadMicros,
		FuzzyClockGrainCycles: s.FuzzyGrainCycles,
		Tracer:                s.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if s.DisablePrefetcher {
		for c := 0; c < s.Platform.Cores; c++ {
			sys.K.M.Hier.PrefetcherOf(c).Disable()
		}
	}
	if s.ConfigureSystem != nil {
		s.ConfigureSystem(sys)
	}
	return sys, nil
}

// Buffer base addresses (disjoint regions of the user address space).
const (
	senderBufBase   = 0x1000_0000
	receiverBufBase = 0x2000_0000
	receiverPCBase  = 0x3000_0000
	senderPCBase    = 0x4000_0000
)

// RunIntraCore runs one Table 3 intra-core covert channel and returns
// the dataset of (sender symbol, receiver measurement) pairs. Untraced
// hook-free runs are memoized process-wide (see memo.go).
func RunIntraCore(s Spec, res Resource) (*mi.Dataset, error) {
	return memoDataset(s, fmt.Sprintf("intracore|%d", res), func() (*mi.Dataset, error) {
		x, err := PrepareIntraCore(s, res)
		if err != nil {
			return nil, err
		}
		return x.Run()
	})
}

// PrepareIntraCore builds a Table 3 intra-core covert channel ready to
// be stepped: machine forked, sender and receiver spawned, nothing run.
func PrepareIntraCore(s Spec, res Resource) (*Interactive, error) {
	s = s.withDefaults()
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	h := sys.K.M.Plat.Hierarchy
	symbols := 4

	var sender *Sender
	var recv *Receiver

	switch res {
	case L1D, L1I, L2:
		sLines, rLines, err := intraCoreLines(sys, res)
		if err != nil {
			return nil, err
		}
		// Probing in the reverse of priming order defeats LRU's
		// worst-case cascade (every prime&probe toolkit does this), and
		// for the L2 it also touches the freshest surviving prefetcher
		// streams before the probe's own allocations displace them.
		rLinesRev := reversed(rLines)
		exec := res == L1I
		sender = NewSender(symbols, s.Seed, func(e *kernel.Env, sym int) {
			n := len(sLines) * sym / (symbols - 1)
			if exec {
				ProbeExec(e, sLines[:n])
			} else {
				Probe(e, sLines[:n])
			}
		})
		measure := func(e *kernel.Env) float64 {
			if exec {
				return float64(ProbeExec(e, rLinesRev))
			}
			return float64(Probe(e, rLinesRev))
		}
		prime := func(e *kernel.Env) {
			if exec {
				ProbeExec(e, rLines)
			} else {
				Probe(e, rLines)
			}
		}
		recv = NewReceiver(sender, s.Samples, measure, prime)

	case TLB:
		sLines, rLines, err := intraCoreLines(sys, res)
		if err != nil {
			return nil, err
		}
		sender = NewSender(symbols, s.Seed, func(e *kernel.Env, sym int) {
			n := len(sLines) * sym / (symbols - 1)
			Probe(e, sLines[:n])
			e.Spin(64)
		})
		recv = NewReceiver(sender, s.Samples,
			func(e *kernel.Env) float64 { return float64(Probe(e, rLines)) },
			func(e *kernel.Env) { Probe(e, rLines) })

	case BTB:
		btbSets := h.BTB.Entries / h.BTB.Ways
		probeBranches := btbSets / 2
		rPCs := make([]uint64, probeBranches)
		for i := range rPCs {
			rPCs[i] = receiverPCBase + uint64(i)*4*2 // spread over sets
		}
		sPCs := make([]uint64, probeBranches*h.BTB.Ways)
		for i := range sPCs {
			sPCs[i] = senderPCBase + uint64(i)*4*2
		}
		sender = NewSender(symbols, s.Seed, func(e *kernel.Env, sym int) {
			n := len(sPCs) * sym / (symbols - 1)
			for _, pc := range sPCs[:n] {
				e.IndirectBranch(pc, pc+0x100)
			}
			e.Spin(64)
		})
		recv = NewReceiver(sender, s.Samples,
			func(e *kernel.Env) float64 {
				t := 0
				for _, pc := range rPCs {
					t += e.IndirectBranch(pc, pc+0x100)
				}
				return float64(t)
			},
			func(e *kernel.Env) {
				for _, pc := range rPCs {
					e.IndirectBranch(pc, pc+0x100)
				}
			})

	case BHB:
		symbols = 2
		probePC := uint64(receiverPCBase + 0x40)
		senderPC := uint64(senderPCBase + 0x40)
		sender = NewSender(symbols, s.Seed, func(e *kernel.Env, sym int) {
			// Evtyushkin-style: take or skip a conditional jump.
			for i := 0; i < 64; i++ {
				e.CondBranch(senderPC, sym == 1)
			}
			e.Spin(64)
		})
		recv = NewReceiver(sender, s.Samples,
			func(e *kernel.Env) float64 {
				t := 0
				for i := 0; i < 16; i++ {
					t += e.CondBranch(probePC+uint64(i%4)*8, true)
				}
				return float64(t)
			},
			func(e *kernel.Env) {
				for i := 0; i < 16; i++ {
					e.CondBranch(probePC+uint64(i%4)*8, true)
				}
			})

	default:
		return nil, fmt.Errorf("channel: unknown resource %v", res)
	}

	if _, err := sys.Spawn(0, "sender", 10, sender); err != nil {
		return nil, err
	}
	if _, err := sys.Spawn(1, "receiver", 10, recv); err != nil {
		return nil, err
	}
	return newInteractive(sys, recv.Dataset(), recv.Done, timeShared, receiverChunkCap, true, s.Samples), nil
}

// intraCoreLines maps the sender's (domain 0) and receiver's (domain 1)
// probe buffers of an L1-D, L1-I, L2 or TLB channel and returns their
// probe lines: every line of a cache-sized buffer, or the first line of
// each page of a TLB-reach buffer.
func intraCoreLines(sys *core.System, res Resource) (sLines, rLines []uint64, err error) {
	h := sys.K.M.Plat.Hierarchy
	var size int
	switch res {
	case L1D:
		size = h.L1D.Size
	case L1I:
		size = h.L1I.Size
	case L2:
		size = h.L2.Size
	case TLB:
		size = h.DTLB.Entries * memory.PageSize
	}
	rsize := size
	if res == L2 {
		// The receiver sizes its probing set to the L2 share it can
		// actually occupy: the full cache when uncoloured, its
		// partition under colouring (it knows its own memory).
		if cols := sys.Domains[1].Pool.Colours(); len(cols) > 0 {
			rsize = size * len(cols) / sys.K.M.Plat.Colours()
		}
		// A partition smaller than a page would round the buffer to
		// zero pages and the receiver would probe nothing; one page is
		// the smallest set a coloured allocation can occupy.
		if rsize < memory.PageSize {
			rsize = memory.PageSize
		}
	}
	sbuf, err := NewProbeBuffer(sys, 0, senderBufBase, size/memory.PageSize)
	if err != nil {
		return nil, nil, err
	}
	rbuf, err := NewProbeBuffer(sys, 1, receiverBufBase, rsize/memory.PageSize)
	if err != nil {
		return nil, nil, err
	}
	if res != TLB {
		return sbuf.AllLines(), rbuf.AllLines(), nil
	}
	pages := func(b *ProbeBuffer) []uint64 {
		out := make([]uint64, 0, b.Pages)
		for p := 0; p < b.Pages; p++ {
			out = append(out, b.Base+uint64(p)*memory.PageSize)
		}
		return out
	}
	return pages(sbuf), pages(rbuf), nil
}

// RunKernelChannel runs the Figure 3 covert channel through a shared
// (or cloned) kernel image: the sender signals with system calls, the
// receiver counts LLC misses on the cache sets holding the kernel's
// syscall handlers. Untraced hook-free runs are memoized process-wide.
func RunKernelChannel(s Spec) (*mi.Dataset, error) {
	return memoDataset(s, "kernel", func() (*mi.Dataset, error) {
		x, err := PrepareKernelChannel(s)
		if err != nil {
			return nil, err
		}
		return x.Run()
	})
}

// PrepareKernelChannel builds the Figure 3 kernel channel ready to be
// stepped.
func PrepareKernelChannel(s Spec) (*Interactive, error) {
	s = s.withDefaults()
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	h := sys.K.M.Plat.Hierarchy

	// Sender caps: a notification and its own TCB.
	nSlot, _, err := sys.NewNotification(0)
	if err != nil {
		return nil, err
	}
	sender := NewSender(4, s.Seed, nil)
	sTCB, err := sys.Spawn(0, "sender", 10, sender)
	if err != nil {
		return nil, err
	}
	tcbSlot := sys.Domains[0].Proc.CSpace.Install(kernel.Capability{
		Type: kernel.CapTCB, Rights: kernel.RightWrite | kernel.RightRead, Obj: sTCB,
	})
	sender.Act = func(e *kernel.Env, sym int) {
		for i := 0; i < 4; i++ {
			switch sym {
			case 0:
				e.Signal(nSlot)
			case 1:
				e.SetPriority(tcbSlot, 10)
			case 2:
				e.Poll(nSlot)
			default:
				e.Spin(600) // idle
			}
		}
	}

	// Receiver: probe buffer covering many page groups, restricted to
	// lines congruent with the sender kernel's syscall text in the LLC.
	// On x86 the signal rides on the small private L2 (the kernel's
	// handler text evicts the receiver's congruent lines there); on the
	// Arm the shared 16-way L2 is the only level, so the receiver needs
	// enough congruent pages to prime whole sets.
	llc := sys.K.M.Hier.LLC()
	bufPages, padTo := 128, 192
	if !h.L2Private {
		bufPages, padTo = 16*llc.Ways(), 0
	}
	rbuf, err := NewProbeBuffer(sys, 1, receiverBufBase, bufPages)
	if err != nil {
		return nil, err
	}
	targets := KernelTextSets(sys, sys.Domains[0].Image, kernel.SyscallTextRanges())
	// The probe list is de-strided (so the prefetcher cannot hide
	// evictions) and the measurement walks it in reverse of the priming
	// order (so a refill evicts the interloper, not the next line to be
	// probed — the anti-LRU discipline of real prime&probe toolkits).
	lines := DeStride(rbuf.LinesForSets(llc, targets, padTo), h.L1D.LineSize)
	linesRev := reversed(lines)
	missThreshold := h.L1D.HitLatency + h.L2.HitLatency + 2
	// After priming, the receiver walks an L1-sized cleansing buffer so
	// its probe lines leave the L1 and the next measurement exposes the
	// physically indexed levels (standard L2/LLC prime&probe technique).
	cbuf, err := NewProbeBuffer(sys, 1, receiverBufBase+0x0800_0000, h.L1D.Size/memory.PageSize)
	if err != nil {
		return nil, err
	}
	cleanse := cbuf.AllLines()
	// The receiver's own code footprint: a real attacker's probing loop
	// and libraries occupy the L1-I, displacing kernel text between
	// syscalls so the kernel's handler fetches reach the shared physical
	// levels. Sized at twice the L1-I so every set is fully displaced;
	// without it the handlers would stay L1-I-resident and invisible.
	xbuf, err := NewProbeBuffer(sys, 1, receiverPCBase, 2*h.L1I.Size/memory.PageSize)
	if err != nil {
		return nil, err
	}
	code := xbuf.AllLines()
	recv := NewReceiver(sender, s.Samples,
		func(e *kernel.Env) float64 { return float64(ProbeMisses(e, linesRev, missThreshold)) },
		func(e *kernel.Env) {
			Probe(e, lines)
			ProbeExec(e, code)
			Probe(e, cleanse)
		})
	if _, err := sys.Spawn(1, "receiver", 10, recv); err != nil {
		return nil, err
	}
	return newInteractive(sys, recv.Dataset(), recv.Done, timeShared, receiverChunkCap, true, s.Samples), nil
}
