package kernel

import (
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/memory"
	"timeprotection/internal/trace"
)

func TestTraceDisabledByDefault(t *testing.T) {
	k := bootKernel(t, hw.Haswell(), ScenarioRaw)
	if k.Tracer != nil {
		t.Fatal("a booted kernel should have no tracer attached")
	}
	k.emit(0, trace.KernelTick, 0, 0) // must not panic
	k.stampDomain(0)
}

func TestTraceRecordsKernelEvents(t *testing.T) {
	k, err := Boot(hw.Haswell(), Config{
		Scenario: ScenarioProtected, CloneSupport: true,
		TimesliceCycles: testSlice,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewSink(1 << 17)
	k.AttachTracer(sink)
	split := memory.SplitColours(hw.Haswell().Colours(), 2)
	var procs [2]*Process
	for i := range procs {
		pool := memory.NewPool(k.M.Alloc, split[i])
		km, err := k.NewKernelMemory(pool)
		if err != nil {
			t.Fatal(err)
		}
		img, err := k.Clone(0, k.BootImage(), km)
		if err != nil {
			t.Fatal(err)
		}
		procs[i], err = k.NewProcess("p", pool, img)
		if err != nil {
			t.Fatal(err)
		}
	}
	n, _ := k.NewNotification(procs[0])
	slot := procs[0].CSpace.Install(Capability{Type: CapNotification, Rights: RightRead | RightWrite, Obj: n})
	mustThread(t, k, procs[0], "a", 10, 0, ProgramFunc(func(e *Env) bool {
		e.Signal(slot)
		e.Spin(1000)
		return true
	}))
	mustThread(t, k, procs[1], "b", 10, 1, &counter{base: 0x400000})
	runFor(k, 0, 6*testSlice)

	// Every event must still be retained, or the counts below would
	// undercount kinds that the ring overwrote.
	if total, kept := sink.Total(), len(sink.Events()); total != uint64(kept) {
		t.Fatalf("sink emitted %d events but retains %d: enlarge the ring", total, kept)
	}
	if got := sink.Count(trace.KernelClone, trace.UnitKernel); got != 2 {
		t.Errorf("clone events = %d, want 2", got)
	}
	for _, kind := range []trace.Kind{
		trace.KernelTick, trace.DomainSwitchBegin, trace.KernelSwitch,
		trace.FlushBegin, trace.KernelSyscall,
	} {
		if sink.Count(kind, trace.UnitKernel) == 0 {
			t.Errorf("no %v events recorded", kind)
		}
	}
	for core := range k.M.Cores {
		var last uint64
		for _, e := range sink.CoreEvents(core) {
			if e.Time < last {
				t.Fatalf("core %d trace not time-ordered: %v after %d", core, e, last)
			}
			last = e.Time
		}
	}
}
