package workload

import (
	"fmt"

	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/memory"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// ForkExecCost simulates the Table 7 comparator: creating a process on a
// monolithic kernel (Linux fork + exec) on the same simulated hardware.
// The paper measured 257 us on the Haswell and 4300 us on the Sabre;
// what Table 7 demonstrates is the ordering (kernel clone is a fraction
// of process creation, destruction 1-2 orders faster still), so the
// comparator charges the memory traffic that dominates real fork+exec:
//
//   - duplicating and populating page tables and kernel bookkeeping,
//   - zeroing fresh anonymous pages (stack, heap, bss),
//   - reading and relocating the executable image and its libraries.
//
// All traffic runs through the simulated cache hierarchy, so the result
// is a measured quantity in the same units as the clone cost. tr, when
// non-nil, observes the run. Untraced measurements are memoized
// process-wide (deterministic in plat).
func ForkExecCost(plat hw.Platform, tr *trace.Sink) (uint64, error) {
	if tr == nil {
		return snapshot.Memo(fmt.Sprintf("forkexec|%+v", plat), func() (uint64, error) {
			return forkExecCost(plat, nil)
		})
	}
	return forkExecCost(plat, tr)
}

func forkExecCost(plat hw.Platform, tr *trace.Sink) (uint64, error) {
	k, err := snapshot.BootKernel(plat, kernel.Config{Scenario: kernel.ScenarioRaw}, tr)
	if err != nil {
		return 0, err
	}
	m := k.M
	pool := memory.NewPool(m.Alloc, nil)

	// Per-architecture scale: the Sabre's fork+exec is relatively far
	// slower (weaker memory system, uncached page-table operations on
	// the A9); model that with a larger page budget and per-page fixed
	// overhead.
	imagePages, anonPages, ptPages, perPageFixed := 60, 48, 16, 400
	if plat.Arch == "arm" {
		imagePages, anonPages, ptPages, perPageFixed = 80, 64, 24, 3200
	}

	lineSize := uint64(plat.Hierarchy.L1D.LineSize)
	start := m.Cores[0].Now

	// Syscall entry, VMA setup and scheduler bookkeeping.
	m.Spin(0, 6000)

	zeroPage := func(f memory.PFN) {
		for off := uint64(0); off < memory.PageSize; off += lineSize {
			m.PhysStore(0, f.Addr()+off)
		}
	}
	copyPage := func(src, dst memory.PFN) {
		for off := uint64(0); off < memory.PageSize; off += lineSize {
			m.PhysLoad(0, src.Addr()+off)
			m.PhysStore(0, dst.Addr()+off)
		}
	}

	// Page-table duplication and population.
	for i := 0; i < ptPages; i++ {
		f, err := pool.Alloc()
		if err != nil {
			return 0, err
		}
		zeroPage(f)
		m.Spin(0, perPageFixed)
	}
	// Anonymous memory (stack, heap, bss) is zeroed on first touch.
	for i := 0; i < anonPages; i++ {
		f, err := pool.Alloc()
		if err != nil {
			return 0, err
		}
		zeroPage(f)
		m.Spin(0, perPageFixed/2)
	}
	// Executable image and libraries: read from the (cached) page cache
	// into the new mappings.
	src, err := pool.AllocN(imagePages)
	if err != nil {
		return 0, err
	}
	for _, f := range src {
		dst, err := pool.Alloc()
		if err != nil {
			return 0, err
		}
		copyPage(f, dst)
		m.Spin(0, perPageFixed/2)
	}
	// exec tail: ELF headers, relocation, initial fault-in.
	m.Spin(0, 8000)

	return m.Cores[0].Now - start, nil
}
