package hw

import "testing"

func TestBusUncontendedIsFree(t *testing.T) {
	b := NewMemoryBus(1000, 4, 80)
	for i := uint64(0); i < 4; i++ {
		if extra := b.Access(0, i*250); extra != 0 {
			t.Fatalf("access %d within capacity stalled %d cycles", i, extra)
		}
	}
}

func TestBusContentionStalls(t *testing.T) {
	b := NewMemoryBus(1000, 2, 80)
	b.Access(0, 100)
	b.Access(1, 200)
	if extra := b.Access(0, 300); extra != 80 {
		t.Fatalf("first excess access stalled %d, want 80", extra)
	}
	if extra := b.Access(1, 400); extra != 160 {
		t.Fatalf("second excess access stalled %d, want 160", extra)
	}
}

func TestBusWindowsIndependent(t *testing.T) {
	b := NewMemoryBus(1000, 1, 80)
	b.Access(0, 100)
	b.Access(0, 900)
	// New window: capacity is fresh.
	if extra := b.Access(0, 1100); extra != 0 {
		t.Fatalf("new window inherited contention: %d", extra)
	}
}

// The property that broke the first implementation: cores' clocks run
// asynchronously, so accesses arrive out of global time order.
func TestBusOrderIndependence(t *testing.T) {
	run := func(times []uint64) uint64 {
		b := NewMemoryBus(1000, 2, 80)
		total := uint64(0)
		for i, tm := range times {
			total += uint64(b.Access(i%2, tm))
		}
		return total
	}
	inOrder := run([]uint64{100, 200, 300, 400})
	outOfOrder := run([]uint64{300, 100, 400, 200})
	if inOrder != outOfOrder {
		t.Fatalf("bus accounting is order-dependent: %d vs %d", inOrder, outOfOrder)
	}
}

func TestBusMBAThrottlesLagged(t *testing.T) {
	b := NewMemoryBus(1000, 100, 80)
	b.SetMBA(2, 150)
	// Core 0 bursts in window 0: no penalty yet (enforcement lags).
	for i := uint64(0); i < 5; i++ {
		if extra := b.Access(0, 100+i); extra != 0 {
			t.Fatalf("burst access penalised immediately: %d", extra)
		}
	}
	// In window 1 the throttle has caught up.
	if extra := b.Access(0, 1100); extra != 150 {
		t.Fatalf("lagged MBA penalty = %d, want 150", extra)
	}
	// An innocent core is not penalised.
	if extra := b.Access(1, 1200); extra != 0 {
		t.Fatalf("other core penalised: %d", extra)
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *MemoryBus
	if b.Access(0, 0) != 0 || b.WindowUsage(0) != 0 {
		t.Fatal("nil bus must be a no-op")
	}
}

func TestAttachBusChargesCore(t *testing.T) {
	m := NewMachine(Haswell())
	bus := NewMemoryBus(1000, 1, 500)
	m.AttachBus(bus)
	// Two cold DRAM accesses in the same window: the second stalls.
	c1 := m.PhysLoad(0, 0x10000)
	c2 := m.PhysLoad(1, 0x20000)
	if c2 < c1+400 { // 500 stall cycles, less the memory jitter
		t.Fatalf("second access cost %d, first %d: stall not charged", c2, c1)
	}
	if got := bus.WindowUsage(0); got != 2 {
		t.Fatalf("bus saw %d accesses in window 0, want 2", got)
	}
	m.AttachBus(nil)
	m.PhysLoad(2, 0x30000)
	if got := bus.WindowUsage(0); got != 2 {
		t.Fatalf("detached bus still observed accesses (%d)", got)
	}
}
