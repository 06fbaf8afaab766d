package hw

import (
	"slices"
	"testing"

	"timeprotection/internal/memory"
)

func TestPlatformParameters(t *testing.T) {
	h := Haswell()
	if h.Colours() != 8 {
		t.Errorf("Haswell L2 colours = %d, want 8", h.Colours())
	}
	if h.LLCColours() != 128 {
		t.Errorf("Haswell LLC colours = %d, want 128", h.LLCColours())
	}
	if h.Hierarchy.L1D.Sets() != 64 {
		t.Errorf("Haswell L1-D sets = %d, want 64", h.Hierarchy.L1D.Sets())
	}
	s := Sabre()
	if s.Colours() != 16 {
		t.Errorf("Sabre colours = %d, want 16", s.Colours())
	}
	if s.Hierarchy.L3.Size != 0 {
		t.Error("Sabre must have no L3")
	}
	if s.Hierarchy.L2Private {
		t.Error("Sabre L2 must be shared")
	}
}

func TestPlatformByName(t *testing.T) {
	for _, n := range []string{"haswell", "x86", "sabre", "arm"} {
		if _, ok := PlatformByName(n); !ok {
			t.Errorf("PlatformByName(%q) failed", n)
		}
	}
	if _, ok := PlatformByName("sparc"); ok {
		t.Error("unknown platform accepted")
	}
}

func TestCycleConversions(t *testing.T) {
	h := Haswell()
	if us := h.CyclesToMicros(3400); us < 0.99 || us > 1.01 {
		t.Errorf("3400 cycles at 3.4 GHz = %f us, want 1", us)
	}
	if c := h.MicrosToCycles(10); c != 34000 {
		t.Errorf("10 us = %d cycles, want 34000", c)
	}
}

func newTestMachine(t *testing.T) (*Machine, *memory.AddressSpace) {
	t.Helper()
	m := NewMachine(Haswell())
	pool := memory.NewPool(m.Alloc, nil)
	as, err := memory.NewAddressSpace(1, pool)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := pool.AllocN(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MapRange(0x400000, frames, false); err != nil {
		t.Fatal(err)
	}
	return m, as
}

func TestMachineLoadAdvancesClock(t *testing.T) {
	m, as := newTestMachine(t)
	before := m.Cores[0].Now
	c := m.Load(0, as, 0x400000)
	if c <= 0 {
		t.Fatal("load consumed no cycles")
	}
	if m.Cores[0].Now != before+uint64(c) {
		t.Fatal("core clock not advanced by access cost")
	}
	// Warm access is much cheaper (TLB + L1 hits).
	warm := m.Load(0, as, 0x400000)
	if warm >= c {
		t.Fatalf("warm load (%d) not cheaper than cold (%d)", warm, c)
	}
}

func TestMachineTLBWalkCost(t *testing.T) {
	m, as := newTestMachine(t)
	cold := m.Load(0, as, 0x400000) // TLB miss: includes 2 PTE loads
	m.Hier.TLBFlush(0, false)
	// Data still cached; only the walk cost returns.
	refill := m.Load(0, as, 0x400000)
	warm := m.Load(0, as, 0x400000)
	if refill <= warm {
		t.Fatalf("post-TLB-flush load (%d) should cost more than warm (%d)", refill, warm)
	}
	if cold <= refill {
		t.Fatalf("cold load (%d) should cost more than TLB-refill load (%d)", cold, refill)
	}
}

func TestMachineUnmappedPanics(t *testing.T) {
	m, as := newTestMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	m.Load(0, as, 0xDEAD0000)
}

func TestMachinePhysAccess(t *testing.T) {
	m := NewMachine(Sabre())
	c1 := m.PhysLoad(0, 0x1000)
	c2 := m.PhysLoad(0, 0x1000)
	if c2 >= c1 {
		t.Fatalf("warm phys load (%d) not cheaper than cold (%d)", c2, c1)
	}
	m.PhysStore(0, 0x2000)
	if m.Hier.L1D(0).DirtyLines() == 0 {
		t.Fatal("phys store did not dirty the L1-D")
	}
	m.PhysFetch(0, 0x3000)
	if !m.Hier.L1I(0).Contains(0x3000, 0x3000) {
		t.Fatal("phys fetch did not fill L1-I")
	}
}

func TestMachineSpin(t *testing.T) {
	m := NewMachine(Sabre())
	m.Spin(2, 100)
	if m.Cores[2].Now != 100 {
		t.Fatal("Spin did not advance the target core")
	}
	if m.Cores[0].Now != 0 {
		t.Fatal("Spin advanced the wrong core")
	}
}

func TestDeviceTimer(t *testing.T) {
	m := NewMachine(Haswell())
	m.IRQ.Route(5, 0)
	tm := m.AddTimer(5)
	tm.Arm(1000)
	m.PollDevices(999)
	if m.IRQ.PendingCount() != 0 {
		t.Fatal("timer fired early")
	}
	m.PollDevices(1000)
	if line, ok := m.IRQ.NextDeliverable(0); !ok || line != 5 {
		t.Fatalf("timer IRQ not deliverable: line=%d ok=%v", line, ok)
	}
	// One-shot.
	m.IRQ.Acknowledge(5)
	m.PollDevices(2000)
	if m.IRQ.PendingCount() != 0 {
		t.Fatal("one-shot timer fired twice")
	}
}

func TestIRQMaskBlocksDelivery(t *testing.T) {
	ic := NewIRQController(2, false)
	ic.Route(3, 1)
	ic.Mask(3)
	ic.Raise(3)
	if _, ok := ic.NextDeliverable(1); ok {
		t.Fatal("masked line delivered on single-level controller")
	}
	ic.Unmask(3)
	if line, ok := ic.NextDeliverable(1); !ok || line != 3 {
		t.Fatal("unmasked pending line not delivered")
	}
}

func TestIRQRoutingIsolatesCores(t *testing.T) {
	ic := NewIRQController(2, false)
	ic.Route(3, 1)
	ic.Raise(3)
	if _, ok := ic.NextDeliverable(0); ok {
		t.Fatal("IRQ delivered to the wrong core")
	}
}

// The §4.3 race: on a two-level controller, a line pending at mask time
// stays deliverable (latched) unless the kernel probes it.
func TestIRQTwoLevelMaskRace(t *testing.T) {
	ic := NewIRQController(1, true)
	ic.Route(7, 0)
	ic.Raise(7)
	ic.Mask(7)
	if _, ok := ic.NextDeliverable(0); !ok {
		t.Fatal("latched line should still be deliverable after mask (the race)")
	}
	// The kernel's fix: probe and acknowledge after masking.
	latched := ic.ProbeLatched(0)
	if len(latched) != 1 || latched[0] != 7 {
		t.Fatalf("ProbeLatched = %v, want [7]", latched)
	}
	if _, ok := ic.NextDeliverable(0); ok {
		t.Fatal("probed line still deliverable")
	}
}

func TestIRQSingleLevelHasNoRace(t *testing.T) {
	ic := NewIRQController(1, false)
	ic.Route(7, 0)
	ic.Raise(7)
	ic.Mask(7)
	if _, ok := ic.NextDeliverable(0); ok {
		t.Fatal("single-level controller must mask pending lines atomically")
	}
	if got := ic.ProbeLatched(0); len(got) != 0 {
		t.Fatal("single-level controller should latch nothing")
	}
}

// threeLinesPending builds a fresh controller with lines 9, 3 and 5
// routed to core 0 and pending (raised in that order).
func threeLinesPending(twoLevel bool) *IRQController {
	ic := NewIRQController(1, twoLevel)
	for _, l := range []int{9, 3, 5} {
		ic.Route(l, 0)
		ic.Raise(l)
	}
	return ic
}

// TestIRQDeliversLowestLineFirst: delivery is fixed-priority, so every
// fresh controller picks the same line. With map-order delivery, 200
// controllers delivered 3, 5 and 9 first in roughly 157/17/26 splits.
func TestIRQDeliversLowestLineFirst(t *testing.T) {
	for i := 0; i < 200; i++ {
		ic := threeLinesPending(false)
		var order []int
		for {
			l, ok := ic.NextDeliverable(0)
			if !ok {
				break
			}
			order = append(order, l)
			ic.Acknowledge(l)
		}
		if !slices.Equal(order, []int{3, 5, 9}) {
			t.Fatalf("controller %d delivered %v, want [3 5 9]", i, order)
		}
	}
	// Masking the lowest line hands delivery to the next one.
	ic := threeLinesPending(false)
	ic.Mask(3)
	if l, ok := ic.NextDeliverable(0); !ok || l != 5 {
		t.Fatalf("with 3 masked NextDeliverable = %d %v, want 5", l, ok)
	}
}

// TestIRQListsAscending: Lines and ProbeLatched return ascending lines
// whatever the routing and raise order.
func TestIRQListsAscending(t *testing.T) {
	for i := 0; i < 50; i++ {
		ic := threeLinesPending(true)
		ic.Route(1, 1) // another core's line is listed, never probed here
		if got := ic.Lines(); !slices.Equal(got, []int{1, 3, 5, 9}) {
			t.Fatalf("Lines = %v, want [1 3 5 9]", got)
		}
		ic.Mask(ic.Lines()...)
		if got := ic.ProbeLatched(0); !slices.Equal(got, []int{3, 5, 9}) {
			t.Fatalf("ProbeLatched = %v, want [3 5 9]", got)
		}
	}
}

// TestIRQNextDeliverableAllocationFree: the kernel asks on every step.
func TestIRQNextDeliverableAllocationFree(t *testing.T) {
	ic := threeLinesPending(false)
	if n := testing.AllocsPerRun(100, func() { ic.NextDeliverable(0) }); n != 0 {
		t.Errorf("NextDeliverable allocates %v times per call", n)
	}
}
