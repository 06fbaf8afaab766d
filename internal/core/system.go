// Package core is the top-level orchestration layer of the time
// protection library: it assembles a platform, a kernel configured for
// one of the paper's three mitigation scenarios, and a set of security
// domains — coloured memory pools with cloned per-domain kernel images
// under time protection, or a shared kernel otherwise — following the
// partitioning recipe of §3.3.
package core

import (
	"fmt"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/trace"
)

// Options configures a System.
type Options struct {
	Platform hw.Platform
	Scenario kernel.Scenario

	// Domains is the number of security domains to partition the system
	// into (default 2).
	Domains int

	// TimesliceMicros is the preemption period (default 100 simulated
	// microseconds — scaled down from the paper's 1-10 ms so experiment
	// suites run in seconds; all compared quantities scale with it).
	TimesliceMicros float64

	// PadMicros pads every domain switch to this worst-case latency
	// (Requirement 4). Zero disables padding. Only meaningful under
	// ScenarioProtected.
	PadMicros float64

	// ColourFraction restricts each domain to this fraction of its
	// colour allocation (Figure 7's 75%/50% configurations). Zero means
	// use the full even split.
	ColourFraction float64

	// StrictDomains enables the static time-driven domain schedule with
	// cross-core co-scheduling (§3.1.1): at any instant only one domain
	// executes anywhere on the machine.
	StrictDomains bool

	// FuzzyClockGrainCycles quantises the user-visible clock (the
	// footnote-4 countermeasure; 0 = precise clock).
	FuzzyClockGrainCycles uint64

	// Tracer attaches a machine-wide observability sink at boot (nil =
	// tracing disabled). It records events and counters from every
	// simulator component.
	Tracer *trace.Sink

	// SharedColours reserves this many colours for cross-domain shared
	// memory before the per-domain split (§6.1: "shared memory can be set
	// up with a dedicated colour"). Buffers come from NewSharedBuffer;
	// making access to them deterministic is the sharers' problem, as the
	// paper notes.
	SharedColours int
}

// Domain is one security domain: a process, its coloured pool, and (under
// time protection) its own kernel image.
type Domain struct {
	ID    int
	Proc  *kernel.Process
	Pool  *memory.Pool
	Image *kernel.Image
}

// BootShape returns the options that determine the booted machine:
// every field resolved, without the tracer (a host attachment, not
// simulated state) and without the run parameters TimesliceMicros and
// PadMicros, which ApplyRunParams sets after boot. Options with the same
// boot shape boot the same machine, so the snapshot layer captures one
// machine per boot shape.
func (o Options) BootShape() Options {
	o = o.withDefaults()
	o.Tracer = nil
	o.TimesliceMicros = 0
	o.PadMicros = 0
	return o
}

// withDefaults resolves the defaulted Options fields. NewSystem and
// DecodeSystem share it so a forked system records the same resolved
// options a cold boot would.
func (o Options) withDefaults() Options {
	if o.Domains == 0 {
		o.Domains = 2
	}
	if o.TimesliceMicros == 0 {
		o.TimesliceMicros = 100
	}
	if o.Platform.Cores == 0 {
		o.Platform = hw.Haswell()
	}
	return o
}

// System is a fully assembled machine + kernel + domains.
type System struct {
	K       *kernel.Kernel
	Opts    Options
	Domains []*Domain

	// SharedPool backs cross-domain shared buffers (nil unless
	// Options.SharedColours reserved colours for it).
	SharedPool *memory.Pool
}

// NewSystem boots a platform and partitions it into domains per the
// scenario. Under ScenarioProtected this follows §3.3: split free memory
// into coloured pools, clone a kernel into each domain's pool, and bind
// each domain's process to its kernel image. It boots the boot shape of
// opts and then applies the run parameters (ApplyRunParams).
func NewSystem(opts Options) (*System, error) {
	opts = opts.withDefaults()
	plat := opts.Platform
	cfg := kernel.Config{
		Scenario:        opts.Scenario,
		CloneSupport:    opts.Scenario == kernel.ScenarioProtected,
		StrictDomains:   opts.StrictDomains,
		FuzzyClockGrain: opts.FuzzyClockGrainCycles,
	}
	k, err := kernel.Boot(plat, cfg)
	if err != nil {
		return nil, err
	}
	if opts.Tracer != nil {
		k.AttachTracer(opts.Tracer)
	}
	s := &System{K: k, Opts: opts}

	protected := opts.Scenario == kernel.ScenarioProtected
	var colourGroups [][]int
	if protected {
		total := plat.Colours()
		if opts.SharedColours > 0 {
			if opts.SharedColours >= total {
				return nil, fmt.Errorf("core: %d shared colours leaves nothing for %d domains", opts.SharedColours, opts.Domains)
			}
			groups := memory.SplitColours(total, 1)[0]
			shared := groups[total-opts.SharedColours:]
			s.SharedPool = memory.NewPool(k.M.Alloc, shared)
			colourGroups = memory.SplitColours(total-opts.SharedColours, opts.Domains)
		} else {
			colourGroups = memory.SplitColours(total, opts.Domains)
		}
	}
	for i := 0; i < opts.Domains; i++ {
		var pool *memory.Pool
		img := k.BootImage()
		if protected {
			colours := colourGroups[i]
			if opts.ColourFraction > 0 && opts.ColourFraction < 1 {
				n := int(opts.ColourFraction*float64(len(colours)) + 0.5)
				if n < 1 {
					n = 1
				}
				colours = colours[:n]
			}
			pool = memory.NewPool(k.M.Alloc, colours)
			km, err := k.NewKernelMemory(pool)
			if err != nil {
				return nil, fmt.Errorf("domain %d: %w", i, err)
			}
			img, err = k.Clone(0, k.BootImage(), km)
			if err != nil {
				return nil, fmt.Errorf("domain %d clone: %w", i, err)
			}
		} else if opts.ColourFraction > 0 && opts.ColourFraction < 1 {
			// Reduced-cache baseline (Figure 7 "base" cases): the
			// standard kernel with user memory restricted to a colour
			// share, no cloning.
			pool = memory.NewPool(k.M.Alloc, memory.ColourShare(plat.Colours(), opts.ColourFraction))
		} else {
			pool = memory.NewPool(k.M.Alloc, nil)
		}
		proc, err := k.NewProcess(fmt.Sprintf("dom%d", i), pool, img)
		if err != nil {
			return nil, fmt.Errorf("domain %d: %w", i, err)
		}
		s.Domains = append(s.Domains, &Domain{ID: i, Proc: proc, Pool: pool, Image: img})
	}
	// Reset the boot-time cycle counters so experiments start from a
	// clean epoch (cloning above consumed simulated time on core 0).
	start := k.M.Cores[0].Now
	for _, c := range k.M.Cores {
		if c.Now < start {
			c.Now = start
		}
	}
	// The boot above built the boot shape; the run parameters follow,
	// as they do on a fork of it.
	if err := s.ApplyRunParams(); err != nil {
		return nil, err
	}
	return s, nil
}

// ApplyRunParams sets the run parameters of s.Opts on a system that has
// not run yet: the kernel's timeslice with each core's first tick, and,
// under ScenarioProtected, the switch padding of every domain's kernel
// image (the paper's §4.3 makes padding an attribute of the image). A
// cold boot and a fork of the boot shape both end here, so the two
// cannot disagree on them.
func (s *System) ApplyRunParams() error {
	plat := s.Opts.Platform
	if err := s.K.SetTimeslice(plat.MicrosToCycles(s.Opts.TimesliceMicros)); err != nil {
		return err
	}
	if s.Opts.Scenario == kernel.ScenarioProtected && s.Opts.PadMicros > 0 {
		pad := plat.MicrosToCycles(s.Opts.PadMicros)
		for _, d := range s.Domains {
			d.Image.SetSwitchPadding(pad)
		}
	}
	return nil
}

// Spawn creates a runnable thread in a domain.
func (s *System) Spawn(dom int, name string, prio int, prog kernel.Program) (*kernel.TCB, error) {
	d := s.Domains[dom]
	return s.K.NewThread(d.Proc, name, prio, dom, prog)
}

// MapBuffer maps pages of coloured memory at vaddr in a domain's address
// space and returns the backing frames.
func (s *System) MapBuffer(dom int, vaddr uint64, pages int) ([]memory.PFN, error) {
	return s.K.MapUserBuffer(s.Domains[dom].Proc, vaddr, pages)
}

// NewNotification creates a notification owned by a domain and installs
// its capability, returning the slot.
func (s *System) NewNotification(dom int) (int, *kernel.Notification, error) {
	d := s.Domains[dom]
	n, err := s.K.NewNotification(d.Proc)
	if err != nil {
		return 0, nil, err
	}
	slot := d.Proc.CSpace.Install(kernel.Capability{
		Type: kernel.CapNotification, Rights: kernel.RightRead | kernel.RightWrite, Obj: n,
	})
	return slot, n, nil
}

// NewEndpointPair creates an endpoint and installs capabilities in two
// domains, returning (clientSlot, serverSlot).
func (s *System) NewEndpointPair(clientDom, serverDom int) (int, int, error) {
	ep, err := s.K.NewEndpoint(s.Domains[clientDom].Proc)
	if err != nil {
		return 0, 0, err
	}
	cap := kernel.Capability{Type: kernel.CapEndpoint, Rights: kernel.RightRead | kernel.RightWrite, Obj: ep}
	c := s.Domains[clientDom].Proc.CSpace.Install(cap)
	sv := s.Domains[serverDom].Proc.CSpace.Install(cap)
	return c, sv, nil
}

// NewIRQ routes an interrupt line with a programmable timer device to a
// core, optionally partitions it to a domain's kernel image (Requirement
// 5), and installs the IRQ_Handler capability in that domain.
func (s *System) NewIRQ(dom, line, coreID int, partition bool) int {
	h := s.K.AddIRQDevice(line, coreID)
	if partition {
		s.K.SetInt(line, s.Domains[dom].Image)
	}
	return s.Domains[dom].Proc.CSpace.Install(kernel.Capability{
		Type: kernel.CapIRQHandler, Rights: kernel.RightRead | kernel.RightWrite, Obj: h,
	})
}

// NewSharedBuffer allocates pages from the dedicated shared-colour pool
// and maps them at vaddr in every listed domain (§6.1). The frames are
// returned so sharers can reason about their placement; the timing
// channel through the shared colour is theirs to make deterministic.
func (s *System) NewSharedBuffer(doms []int, vaddr uint64, pages int) ([]memory.PFN, error) {
	if s.SharedPool == nil {
		return nil, fmt.Errorf("core: no shared colours reserved (Options.SharedColours)")
	}
	frames, err := s.SharedPool.AllocN(pages)
	if err != nil {
		return nil, err
	}
	for _, d := range doms {
		if err := s.Domains[d].Proc.AS.MapRange(vaddr, frames, false); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// DestroyDomain tears a domain down completely: its kernel image (and
// any nested clones) is revoked, its threads are suspended, and every
// frame its pool ever handed out returns to the machine allocator. The
// freed colours can then be transferred to a surviving domain with
// GrowDomain — the §3.3 re-partitioning story end to end.
func (s *System) DestroyDomain(id int) error {
	d := s.Domains[id]
	if d.Image != s.K.BootImage() {
		if err := s.K.RevokeImage(0, d.Image); err != nil {
			return err
		}
	}
	d.Pool.Release()
	return nil
}

// GrowDomain moves every colour of a (destroyed) source domain's pool to
// a surviving domain, enlarging its cache and memory share.
func (s *System) GrowDomain(into, from int) error {
	return s.Domains[from].Pool.TransferAll(s.Domains[into].Pool)
}

// RunCoreFor advances one core by the given number of cycles.
func (s *System) RunCoreFor(core int, cycles uint64) {
	s.K.RunCore(core, s.K.M.Cores[core].Now+cycles)
}

// RunCoresFor co-schedules several cores for the given number of cycles
// past the latest core clock.
func (s *System) RunCoresFor(cores []int, cycles uint64) {
	max := uint64(0)
	for _, c := range cores {
		if now := s.K.M.Cores[c].Now; now > max {
			max = now
		}
	}
	s.K.RunCores(cores, max+cycles)
}

// Timeslice returns the preemption period in cycles.
func (s *System) Timeslice() uint64 { return s.K.Timeslice() }

// Now returns a core's cycle counter.
func (s *System) Now(core int) uint64 { return s.K.M.Cores[core].Now }
