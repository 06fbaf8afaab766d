package workload

import (
	"fmt"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// IPCVariant selects one row of Table 5.
type IPCVariant int

// Table 5 rows.
const (
	// IPCOriginal is the mainline kernel: global kernel mappings, no
	// clone support.
	IPCOriginal IPCVariant = iota
	// IPCColourReady supports cloning (per-ASID kernel mappings) without
	// using it: both processes run on the boot kernel.
	IPCColourReady
	// IPCIntraColour runs client and server on the same cloned kernel.
	IPCIntraColour
	// IPCInterColour runs them on different cloned kernels: each IPC
	// crosses kernel images (stack switch, no flush or padding — the
	// paper's artificial baseline-cost case).
	IPCInterColour
)

var ipcNames = [...]string{"original", "colour-ready", "intra-colour", "inter-colour"}

func (v IPCVariant) String() string { return ipcNames[v] }

// IPCVariants lists all Table 5 rows in order.
func IPCVariants() []IPCVariant {
	return []IPCVariant{IPCOriginal, IPCColourReady, IPCIntraColour, IPCInterColour}
}

// MeasureIPC returns the steady-state one-way cost in cycles of
// cross-address-space call/reply IPC under the given variant (Table 5).
// tr, when non-nil, observes the run. Untraced measurements are
// memoized process-wide (deterministic in plat and variant).
func MeasureIPC(plat hw.Platform, variant IPCVariant, tr *trace.Sink) (float64, error) {
	if tr == nil {
		return snapshot.Memo(snapshot.KeyOf("ipc", variant, plat), func() (float64, error) {
			return measureIPC(plat, variant, nil)
		})
	}
	return measureIPC(plat, variant, tr)
}

func measureIPC(plat hw.Platform, variant IPCVariant, tr *trace.Sink) (float64, error) {
	cloneSupport := variant != IPCOriginal
	k, err := snapshot.BootKernel(plat, kernel.Config{
		Scenario: kernel.ScenarioRaw,
		// A long slice keeps preemption out of the measurement.
		TimesliceCycles: plat.MicrosToCycles(100_000),
		CloneSupport:    cloneSupport,
	}, tr)
	if err != nil {
		return 0, err
	}
	if variant == IPCIntraColour || variant == IPCInterColour {
		// Give clones their own colour pools, as a partitioned system
		// would.
		split := memory.SplitColours(plat.Colours(), 2)
		poolA := memory.NewPool(k.M.Alloc, split[0])
		poolB := memory.NewPool(k.M.Alloc, split[1])
		kmA, err := k.NewKernelMemory(poolA)
		if err != nil {
			return 0, err
		}
		imgA, err := k.Clone(0, k.BootImage(), kmA)
		if err != nil {
			return 0, err
		}
		imgB := imgA
		if variant == IPCInterColour {
			kmB, err := k.NewKernelMemory(poolB)
			if err != nil {
				return 0, err
			}
			if imgB, err = k.Clone(0, k.BootImage(), kmB); err != nil {
				return 0, err
			}
		}
		return ipcPingPong(k, poolA, poolB, imgA, imgB)
	}
	poolA := memory.NewPool(k.M.Alloc, nil)
	poolB := memory.NewPool(k.M.Alloc, nil)
	return ipcPingPong(k, poolA, poolB, k.BootImage(), k.BootImage())
}

// ipcPingPong builds a client and a server process and measures
// warm-state round trips.
func ipcPingPong(k *kernel.Kernel, poolC, poolS *memory.Pool, imgC, imgS *kernel.Image) (float64, error) {
	const (
		warmup = 64
		rounds = 512
	)
	client, err := k.NewProcess("client", poolC, imgC)
	if err != nil {
		return 0, err
	}
	server, err := k.NewProcess("server", poolS, imgS)
	if err != nil {
		return 0, err
	}
	ep, err := k.NewEndpoint(client)
	if err != nil {
		return 0, err
	}
	cap := kernel.Capability{Type: kernel.CapEndpoint, Rights: kernel.RightRead | kernel.RightWrite, Obj: ep}
	cSlot := client.CSpace.Install(cap)
	sSlot := server.CSpace.Install(cap)

	// Map a touch buffer per process: real IPC peers touch some of
	// their own data between messages.
	if _, err := k.MapUserBuffer(client, 0x400000, 2); err != nil {
		return 0, err
	}
	if _, err := k.MapUserBuffer(server, 0x400000, 2); err != nil {
		return 0, err
	}

	var start, end uint64
	calls := 0
	serverStarted := false
	sProg := kernel.ProgramFunc(func(e *kernel.Env) bool {
		if !serverStarted {
			serverStarted = true
			e.Recv(sSlot)
			return true
		}
		e.Load(0x400000)
		e.ReplyRecv(sSlot)
		return true
	})
	cProg := kernel.ProgramFunc(func(e *kernel.Env) bool {
		if calls == warmup {
			start = e.Now()
		}
		if calls == warmup+rounds {
			end = e.Now()
			return false
		}
		calls++
		e.Load(0x400000)
		e.Call(cSlot)
		return true
	})
	if _, err := k.NewThread(server, "server", 20, 1, sProg); err != nil {
		return 0, err
	}
	if _, err := k.NewThread(client, "client", 10, 0, cProg); err != nil {
		return 0, err
	}
	horizon := k.M.Cores[0].Now + uint64(warmup+rounds+16)*40_000
	k.RunCore(0, horizon)
	if end == 0 {
		return 0, fmt.Errorf("workload: IPC measurement did not complete (calls=%d)", calls)
	}
	// One round trip is two one-way IPCs.
	return float64(end-start) / float64(rounds) / 2, nil
}
