package kernel

import (
	"errors"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/memory"
	"timeprotection/internal/trace"
)

const testSlice = 20000

// kernelEvents counts the kernel events emitted since watchKernel by
// kind, and keeps the latest of each kind.
type kernelEvents struct {
	n    map[trace.Kind]int
	last map[trace.Kind]trace.Event
}

// watchKernel attaches an event sink to k and returns the tally it
// feeds; tests read the kernel's activity from it.
func watchKernel(k *Kernel) *kernelEvents {
	ev := &kernelEvents{n: map[trace.Kind]int{}, last: map[trace.Kind]trace.Event{}}
	sink := trace.NewSink(1)
	sink.OnEvent = func(e trace.Event) {
		if e.Unit == trace.UnitKernel {
			ev.n[e.Kind]++
			ev.last[e.Kind] = e
		}
	}
	k.AttachTracer(sink)
	return ev
}

func bootKernel(t *testing.T, plat hw.Platform, sc Scenario) *Kernel {
	t.Helper()
	cfg := Config{Scenario: sc, TimesliceCycles: testSlice, CloneSupport: sc == ScenarioProtected}
	k, err := Boot(plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// twoDomains builds a two-domain system: coloured pools plus cloned
// kernels under ScenarioProtected; shared kernel and colour-blind pools
// otherwise.
func twoDomains(t *testing.T, plat hw.Platform, sc Scenario) (*Kernel, [2]*Process) {
	t.Helper()
	k := bootKernel(t, plat, sc)
	var pools [2]*memory.Pool
	if sc == ScenarioProtected {
		split := memory.SplitColours(plat.Colours(), 2)
		pools[0] = memory.NewPool(k.M.Alloc, split[0])
		pools[1] = memory.NewPool(k.M.Alloc, split[1])
	} else {
		pools[0] = memory.NewPool(k.M.Alloc, nil)
		pools[1] = memory.NewPool(k.M.Alloc, nil)
	}
	var procs [2]*Process
	for i := range procs {
		img := k.BootImage()
		if sc == ScenarioProtected {
			km, err := k.NewKernelMemory(pools[i])
			if err != nil {
				t.Fatal(err)
			}
			var cerr error
			img, cerr = k.Clone(0, k.BootImage(), km)
			if cerr != nil {
				t.Fatal(cerr)
			}
		}
		p, err := k.NewProcess("dom", pools[i], img)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	return k, procs
}

// counter is a program that performs loads over a small buffer and
// counts its steps.
type counter struct {
	base  uint64
	steps int
	limit int
}

func (c *counter) Step(e *Env) bool {
	for i := uint64(0); i < 8; i++ {
		e.Load(c.base + i*64)
	}
	c.steps++
	return c.limit <= 0 || c.steps < c.limit
}

func mustThread(t *testing.T, k *Kernel, p *Process, name string, prio, domain int, prog Program) *TCB {
	t.Helper()
	if _, err := k.MapUserBuffer(p, 0x400000, 4); err != nil {
		t.Fatal(err)
	}
	tcb, err := k.NewThread(p, name, prio, domain, prog)
	if err != nil {
		t.Fatal(err)
	}
	return tcb
}

// runFor runs core for delta more cycles from its current time.
func runFor(k *Kernel, core int, delta uint64) {
	k.RunCore(core, k.M.Cores[core].Now+delta)
}

func TestBootRejectsProtectedWithoutClone(t *testing.T) {
	_, err := Boot(hw.Haswell(), Config{Scenario: ScenarioProtected})
	if err == nil {
		t.Fatal("protected scenario without CloneSupport must be rejected")
	}
}

func TestBootDefaults(t *testing.T) {
	k, err := Boot(hw.Sabre(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if k.Timeslice() != hw.Sabre().MicrosToCycles(100) {
		t.Errorf("default timeslice = %d", k.Timeslice())
	}
	if len(k.Images) != 1 || k.BootImage().ID != 0 {
		t.Error("boot must create exactly the initial image")
	}
}

func TestSharedDataAuditHasNoUserSecrets(t *testing.T) {
	k := bootKernel(t, hw.Haswell(), ScenarioRaw)
	total := 0
	for _, e := range k.Shared.AuditSharedData() {
		if e.UserSecret {
			t.Errorf("shared item %q is tainted by user secrets", e.Name)
		}
		total += e.Size
	}
	if total > k.Shared.Size() {
		t.Errorf("audit covers %d bytes > region size %d", total, k.Shared.Size())
	}
}

func TestFullFlushScenarioDisablesPrefetcher(t *testing.T) {
	k := bootKernel(t, hw.Haswell(), ScenarioFullFlush)
	for c := 0; c < 4; c++ {
		if k.M.Hier.PrefetcherOf(c).Enabled() {
			t.Fatalf("core %d prefetcher enabled under full flush", c)
		}
	}
}

func TestRunCoreExecutesProgram(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	c := &counter{base: 0x400000, limit: 10}
	mustThread(t, k, procs[0], "c", 10, 0, c)
	runFor(k, 0, 5_000_000)
	if c.steps != 10 {
		t.Fatalf("program ran %d steps, want 10", c.steps)
	}
	if k.CurrentThread(0) != nil {
		t.Fatal("finished thread still current")
	}
}

func TestPreemptionRoundRobin(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	a := &counter{base: 0x400000}
	b := &counter{base: 0x400000}
	mustThread(t, k, procs[0], "a", 10, 0, a)
	mustThread(t, k, procs[1], "b", 10, 1, b)
	ev := watchKernel(k)
	runFor(k, 0, 40*testSlice)
	if a.steps == 0 || b.steps == 0 {
		t.Fatalf("both threads must run: a=%d b=%d", a.steps, b.steps)
	}
	ratio := float64(a.steps) / float64(b.steps)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair round-robin: a=%d b=%d", a.steps, b.steps)
	}
	if ev.n[trace.KernelTick] == 0 {
		t.Error("no preemption ticks recorded")
	}
}

func TestHigherPriorityWins(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	lo := &counter{base: 0x400000}
	hi := &counter{base: 0x400000}
	mustThread(t, k, procs[0], "lo", 5, 0, lo)
	mustThread(t, k, procs[1], "hi", 50, 0, hi)
	runFor(k, 0, 10*testSlice)
	if lo.steps != 0 {
		t.Errorf("low-priority thread ran %d steps while high-priority runnable", lo.steps)
	}
	if hi.steps == 0 {
		t.Error("high-priority thread never ran")
	}
}

func TestSignalPollSemantics(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	n, err := k.NewNotification(procs[0])
	if err != nil {
		t.Fatal(err)
	}
	slot := procs[0].CSpace.Install(Capability{Type: CapNotification, Rights: RightWrite | RightRead, Obj: n})

	var polled []uint64
	prog := ProgramFunc(func(e *Env) bool {
		if err := e.Signal(slot); err != nil {
			t.Errorf("Signal: %v", err)
		}
		e.Signal(slot)
		w, err := e.Poll(slot)
		if err != nil {
			t.Errorf("Poll: %v", err)
		}
		polled = append(polled, w)
		w2, _ := e.Poll(slot)
		polled = append(polled, w2)
		return false
	})
	mustThread(t, k, procs[0], "sig", 10, 0, prog)
	ev := watchKernel(k)
	runFor(k, 0, 10*testSlice)
	if len(polled) != 2 || polled[0] != 2 || polled[1] != 0 {
		t.Fatalf("polled = %v, want [2 0]", polled)
	}
	if ev.n[trace.KernelSyscall] == 0 {
		t.Error("syscalls not counted")
	}
}

func TestCapabilityValidationInSyscalls(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	var errs []error
	prog := ProgramFunc(func(e *Env) bool {
		_, e1 := e.Poll(99) // invalid slot
		errs = append(errs, e1)
		e2 := e.Signal(0) // slot 0 exists but is not a notification
		errs = append(errs, e2)
		return false
	})
	procs[0].CSpace.Install(Capability{Type: CapTCB, Rights: RightWrite, Obj: &TCB{}})
	mustThread(t, k, procs[0], "bad", 10, 0, prog)
	runFor(k, 0, 10*testSlice)
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Fatalf("expected two capability errors, got %v", errs)
	}
}

func TestIPCPingPong(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	ep, err := k.NewEndpoint(procs[0])
	if err != nil {
		t.Fatal(err)
	}
	cSlot := procs[0].CSpace.Install(Capability{Type: CapEndpoint, Rights: RightWrite | RightRead, Obj: ep})
	sSlot := procs[1].CSpace.Install(Capability{Type: CapEndpoint, Rights: RightWrite | RightRead, Obj: ep})

	rounds := 0
	serverStarted := false
	server := ProgramFunc(func(e *Env) bool {
		if !serverStarted {
			serverStarted = true
			e.Recv(sSlot)
			return true
		}
		rounds++
		e.ReplyRecv(sSlot)
		return true
	})
	calls := 0
	client := ProgramFunc(func(e *Env) bool {
		if calls >= 5 {
			return false
		}
		calls++
		e.Call(cSlot)
		return true
	})
	// Server at higher priority so it blocks on Recv first.
	mustThread(t, k, procs[1], "server", 20, 1, server)
	mustThread(t, k, procs[0], "client", 10, 0, client)
	runFor(k, 0, 100*testSlice)
	if calls != 5 || rounds != 5 {
		t.Fatalf("calls=%d rounds=%d, want 5/5", calls, rounds)
	}
}

func TestCloneRequiresColourReadyKernel(t *testing.T) {
	k := bootKernel(t, hw.Haswell(), ScenarioRaw) // CloneSupport false
	pool := memory.NewPool(k.M.Alloc, nil)
	km, err := k.NewKernelMemory(pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Clone(0, k.BootImage(), km); err == nil {
		t.Fatal("clone on a non-colour-ready kernel must fail")
	}
}

func TestCloneProducesWorkingImage(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	if len(k.Images) != 3 {
		t.Fatalf("expected boot + 2 cloned images, got %d", len(k.Images))
	}
	img := procs[0].Image
	if img == k.BootImage() {
		t.Fatal("process 0 still on the boot image")
	}
	if img.idle == nil {
		t.Fatal("cloned image has no idle thread")
	}
	// The cloned image's text is coloured with its pool.
	cols := map[int]bool{}
	for _, c := range procs[0].Pool.Colours() {
		cols[c] = true
	}
	for _, f := range img.text {
		if !cols[memory.ColourOf(f, k.M.Plat.Colours())] {
			t.Fatalf("cloned text frame %d outside the domain's colours", f)
		}
	}
	// And it serves syscalls.
	n, _ := k.NewNotification(procs[0])
	slot := procs[0].CSpace.Install(Capability{Type: CapNotification, Rights: RightWrite | RightRead, Obj: n})
	done := false
	mustThread(t, k, procs[0], "x", 10, 0, ProgramFunc(func(e *Env) bool {
		e.Signal(slot)
		done = true
		return false
	}))
	runFor(k, 0, 10*testSlice)
	if !done || n.Word != 1 {
		t.Fatal("syscall on cloned image did not execute")
	}
}

func TestCloneRightEnforcedAtCapLayer(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	// A derived capability without the clone right must not clone.
	master := Capability{Type: CapKernelImage, Rights: RightRead | RightWrite | RightClone, Obj: k.BootImage()}
	derived := master.Derive(RightRead | RightWrite)
	srcSlot := procs[0].CSpace.Install(derived)
	kmSlot, err := k.GrantKernelMemoryCap(procs[0], procs[0].Pool)
	if err != nil {
		t.Fatal(err)
	}
	var cloneErr error
	ran := false
	mustThread(t, k, procs[0], "cl", 10, 0, ProgramFunc(func(e *Env) bool {
		_, cloneErr = e.KernelClone(srcSlot, kmSlot)
		ran = true
		return false
	}))
	runFor(k, 0, 50*testSlice)
	if !ran {
		t.Fatal("clone program did not run")
	}
	if cloneErr == nil {
		t.Fatal("clone without RightClone must fail")
	}
}

func TestKernelCloneViaEnvAndCost(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	srcSlot := k.GrantBootImageCap(procs[0])
	kmSlot, err := k.GrantKernelMemoryCap(procs[0], procs[0].Pool)
	if err != nil {
		t.Fatal(err)
	}
	var newSlot int
	var cloneErr error
	var cloneCycles uint64
	mustThread(t, k, procs[0], "cl", 10, 0, ProgramFunc(func(e *Env) bool {
		start := e.Now()
		newSlot, cloneErr = e.KernelClone(srcSlot, kmSlot)
		cloneCycles = e.Now() - start
		return false
	}))
	runFor(k, 0, 400*testSlice)
	if cloneErr != nil {
		t.Fatal(cloneErr)
	}
	if _, err := procs[0].CSpace.Lookup(newSlot, CapKernelImage, RightClone); err != nil {
		t.Fatalf("new image cap invalid: %v", err)
	}
	if cloneCycles == 0 {
		t.Fatal("clone took no time")
	}
	us := k.M.Plat.CyclesToMicros(cloneCycles)
	if us < 5 || us > 500 {
		t.Errorf("clone cost %.1f us implausible (paper: 79 us)", us)
	}
}

func TestDestroyImage(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	img := procs[0].Image
	tcb := mustThread(t, k, procs[0], "victim", 10, 0, &counter{base: 0x400000})
	runFor(k, 0, 2*testSlice) // let it run
	if err := k.DestroyImage(0, img); err != nil {
		t.Fatal(err)
	}
	if !img.Zombie() {
		t.Fatal("destroyed image not zombie")
	}
	if tcb.State != StateSuspended {
		t.Fatalf("thread state = %v, want Suspended", tcb.State)
	}
	if err := k.DestroyImage(0, img); err == nil {
		t.Fatal("double destroy must fail")
	}
	// The system stays alive on the boot image's idle thread.
	runFor(k, 0, 4*testSlice)
}

func TestBootImageIndestructible(t *testing.T) {
	k := bootKernel(t, hw.Haswell(), ScenarioProtected)
	if err := k.DestroyImage(0, k.BootImage()); err == nil {
		t.Fatal("boot image must be indestructible")
	}
}

func TestDomainSwitchFlushesOnCoreState(t *testing.T) {
	k, procs := twoDomains(t, hw.Sabre(), ScenarioProtected)
	a := &counter{base: 0x400000}
	b := &counter{base: 0x400000}
	mustThread(t, k, procs[0], "a", 10, 0, a)
	mustThread(t, k, procs[1], "b", 10, 1, b)
	ev := watchKernel(k)
	runFor(k, 0, 3*testSlice)
	if ev.n[trace.DomainSwitchBegin] == 0 {
		t.Fatal("no domain switches")
	}
	// Immediately after a switch the TLB holds only entries installed
	// since; the previous domain's user entries must be gone.
	if k.M.Hier.DTLBOf(0).ValidEntries() > 20 {
		t.Errorf("D-TLB has %d entries after flush-bearing switches", k.M.Hier.DTLBOf(0).ValidEntries())
	}
}

func TestRawScenarioDoesNotFlush(t *testing.T) {
	k, procs := twoDomains(t, hw.Sabre(), ScenarioRaw)
	a := &counter{base: 0x400000}
	b := &counter{base: 0x400000}
	mustThread(t, k, procs[0], "a", 10, 0, a)
	mustThread(t, k, procs[1], "b", 10, 1, b)
	ev := watchKernel(k)
	runFor(k, 0, 6*testSlice)
	if ev.n[trace.DomainSwitchBegin] == 0 {
		t.Fatal("no domain switches")
	}
	if k.M.Hier.L1D(0).ValidLines() == 0 {
		t.Error("raw switch should leave the L1-D populated")
	}
}

func TestFullFlushEmptiesHierarchy(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioFullFlush)
	mustThread(t, k, procs[0], "a", 10, 0, &counter{base: 0x400000})
	mustThread(t, k, procs[1], "b", 10, 1, &counter{base: 0x400000})
	// Run until at least one domain switch has happened, then check at
	// the switch boundary by running exactly to the next tick.
	ev := watchKernel(k)
	runFor(k, 0, testSlice+3000)
	if ev.n[trace.DomainSwitchBegin] == 0 {
		t.Fatal("no domain switch at first tick")
	}
	// After a full flush the LLC retains only lines touched since the
	// switch (kernel exit path), far fewer than a populated cache.
	if got := k.M.Hier.LLC().ValidLines(); got > 512 {
		t.Errorf("LLC holds %d lines right after full flush", got)
	}
}

func TestPaddingExtendsSwitch(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	pad := k.M.Plat.MicrosToCycles(58.8)
	for _, p := range procs {
		p.Image.SetSwitchPadding(pad)
	}
	mustThread(t, k, procs[0], "a", 10, 0, &counter{base: 0x400000})
	mustThread(t, k, procs[1], "b", 10, 1, &counter{base: 0x400000})
	ev := watchKernel(k)
	runFor(k, 0, 10*testSlice)
	if ev.n[trace.DomainSwitchEnd] == 0 {
		t.Fatal("no domain switches")
	}
	// DomainSwitchEnd carries the switch cost without padding (Addr); the
	// Pad event just before it carries the cycles padding added (Addr).
	// Every switch must be padded, so the last of each belong together.
	if ev.n[trace.Pad] != ev.n[trace.DomainSwitchEnd] {
		t.Fatalf("%d padded switches of %d", ev.n[trace.Pad], ev.n[trace.DomainSwitchEnd])
	}
	end, padded := ev.last[trace.DomainSwitchEnd], ev.last[trace.Pad]
	if padded.Addr == 0 {
		t.Error("padding did not extend the switch")
	}
	if end.Addr+padded.Addr < pad/2 {
		t.Errorf("padded switch %d cycles, pad configured %d", end.Addr+padded.Addr, pad)
	}
}

func TestIRQPartitioningMasksForeignLines(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	h := k.AddIRQDevice(9, 0)
	k.SetInt(9, procs[1].Image) // line belongs to domain 1's kernel
	_ = h
	mustThread(t, k, procs[0], "a", 10, 0, &counter{base: 0x400000})
	mustThread(t, k, procs[1], "b", 10, 1, &counter{base: 0x400000})
	// After the first domain switch the mask must track the current image.
	ev := watchKernel(k)
	for i := 0; i < 6; i++ {
		runFor(k, 0, testSlice)
		cur := k.CurrentImage(0)
		masked := k.M.IRQ.Masked(9)
		if cur == procs[1].Image && masked {
			t.Fatalf("slice %d: line 9 masked while its own domain runs", i)
		}
		if cur == procs[0].Image && !masked && ev.n[trace.DomainSwitchBegin] > 0 {
			t.Fatalf("slice %d: foreign line 9 unmasked in domain 0", i)
		}
	}
}

func TestDeferredIRQDeliveredInOwnDomain(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	k.AddIRQDevice(9, 0)
	k.SetInt(9, procs[1].Image)
	n, _ := k.NewNotification(procs[1])
	k.BindIRQNotification(9, n)
	mustThread(t, k, procs[0], "a", 10, 0, &counter{base: 0x400000})
	mustThread(t, k, procs[1], "b", 10, 1, &counter{base: 0x400000})
	// Advance until the foreign domain (0) is current, then raise the
	// line owned by domain 1's kernel.
	for i := 0; i < 20 && k.CurrentImage(0) != procs[0].Image; i++ {
		runFor(k, 0, testSlice/2)
	}
	if k.CurrentImage(0) != procs[0].Image {
		t.Fatal("domain 0 never scheduled")
	}
	ev := watchKernel(k)
	k.M.IRQ.Raise(9)
	// While domain 0 remains current the IRQ must stay masked.
	runFor(k, 0, 2000)
	if k.CurrentImage(0) == procs[0].Image && ev.n[trace.KernelIRQ] != 0 {
		t.Fatal("partitioned IRQ handled in a foreign domain")
	}
	// Once its own domain runs the IRQ is delivered.
	for i := 0; i < 20 && ev.n[trace.KernelIRQ] == 0; i++ {
		runFor(k, 0, testSlice/2)
	}
	if ev.n[trace.KernelIRQ] == 0 {
		t.Fatal("partitioned IRQ never delivered")
	}
	if n.Word == 0 {
		t.Fatal("bound notification not signalled")
	}
}

// TestKernelSetIntSyscall drives Kernel_SetInt (§4.2) through its
// capability-checked syscall: a wrong capability type or a capability
// without write rights is refused and binds nothing; valid capabilities
// bind the line, so delivery waits for the owning image's slices.
func TestKernelSetIntSyscall(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioProtected)
	h := k.AddIRQDevice(9, 0)
	cs := &procs[0].CSpace
	irqRW := cs.Install(Capability{Type: CapIRQHandler, Rights: RightRead | RightWrite, Obj: h})
	irqRO := cs.Install(Capability{Type: CapIRQHandler, Rights: RightRead, Obj: h})
	imgRW := cs.Install(Capability{Type: CapKernelImage, Rights: RightRead | RightWrite, Obj: procs[1].Image})
	imgRO := cs.Install(Capability{Type: CapKernelImage, Rights: RightRead, Obj: procs[1].Image})
	n, _ := k.NewNotification(procs[1])
	k.BindIRQNotification(9, n)

	refusals := []struct {
		name         string
		irqSlot, img int
		want         error
	}{
		{"image cap as the IRQ handler", imgRW, imgRW, ErrWrongType},
		{"IRQ cap as the image", irqRW, irqRW, ErrWrongType},
		{"read-only IRQ handler", irqRO, imgRW, ErrNoRights},
		{"read-only image", irqRW, imgRO, ErrNoRights},
	}
	bound := false
	setter := ProgramFunc(func(e *Env) bool {
		if !bound {
			bound = true
			for _, r := range refusals {
				if err := e.KernelSetInt(r.irqSlot, r.img); !errors.Is(err, r.want) {
					t.Errorf("%s: got %v, want %v", r.name, err, r.want)
				}
			}
			if img := k.irqBind[9].img; img != nil {
				t.Fatal("a refused Kernel_SetInt bound the line")
			}
			if err := e.KernelSetInt(irqRW, imgRW); err != nil {
				t.Fatalf("KernelSetInt with valid capabilities: %v", err)
			}
		}
		e.Spin(1000)
		return true
	})
	mustThread(t, k, procs[0], "a", 10, 0, setter)
	mustThread(t, k, procs[1], "b", 10, 1, &counter{base: 0x400000})
	for i := 0; i < 20 && !bound; i++ {
		runFor(k, 0, testSlice/2)
	}
	if k.irqBind[9].img != procs[1].Image {
		t.Fatal("Kernel_SetInt did not bind line 9 to domain 1's image")
	}
	// The mask follows the binding from the next domain switch on: wait
	// for domain 1, then for domain 0 to be current again.
	for _, want := range []*Image{procs[1].Image, procs[0].Image} {
		for i := 0; i < 20 && k.CurrentImage(0) != want; i++ {
			runFor(k, 0, testSlice/2)
		}
		if k.CurrentImage(0) != want {
			t.Fatal("domains never alternated")
		}
	}
	ev := watchKernel(k)
	k.M.IRQ.Raise(9)
	runFor(k, 0, 2000)
	if k.CurrentImage(0) == procs[0].Image && ev.n[trace.KernelIRQ] != 0 {
		t.Fatal("IRQ bound by Kernel_SetInt handled in a foreign domain")
	}
	for i := 0; i < 20 && ev.n[trace.KernelIRQ] == 0; i++ {
		runFor(k, 0, testSlice/2)
	}
	if ev.n[trace.KernelIRQ] == 0 || n.Word == 0 {
		t.Fatal("IRQ bound by Kernel_SetInt never delivered to its own domain")
	}
}

func TestSleepRest(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	wakeups := 0
	prog := ProgramFunc(func(e *Env) bool {
		wakeups++
		e.SleepRest()
		return wakeups < 3
	})
	mustThread(t, k, procs[0], "s", 10, 0, prog)
	runFor(k, 0, 10*testSlice)
	if wakeups != 3 {
		t.Fatalf("wakeups = %d, want 3 (one per slice)", wakeups)
	}
}

func TestRunCoresInterleavesFairly(t *testing.T) {
	k, procs := twoDomains(t, hw.Haswell(), ScenarioRaw)
	a := &counter{base: 0x400000}
	b := &counter{base: 0x500000}
	mustThread(t, k, procs[0], "a", 10, 0, a)
	// Second thread on core 1: route by creating it there.
	if _, err := k.MapUserBuffer(procs[1], 0x500000, 4); err != nil {
		t.Fatal(err)
	}
	tb, err := k.NewThread(procs[1], "b", 10, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	_ = tb
	// Both threads are in one global queue; core 0 takes one, core 1 the
	// other.
	k.RunCores([]int{0, 1}, 2*testSlice)
	if a.steps == 0 || b.steps == 0 {
		t.Fatalf("both cores must make progress: a=%d b=%d", a.steps, b.steps)
	}
	d := k.M.Cores[0].Now
	e := k.M.Cores[1].Now
	if d < testSlice || e < testSlice {
		t.Errorf("cores did not advance to the horizon: %d, %d", d, e)
	}
}
