package kernel

import (
	"fmt"

	"timeprotection/internal/memory"
)

// MapUserBuffer allocates pages frames from the process pool and maps
// them contiguously at vaddr, returning the frames. This is the Retype
// Untyped -> Frame -> Map sequence collapsed for experiment setup.
func (k *Kernel) MapUserBuffer(p *Process, vaddr uint64, pages int) ([]memory.PFN, error) {
	frames, err := p.Pool.AllocN(pages)
	if err != nil {
		return nil, fmt.Errorf("user buffer at %#x: %w", vaddr, err)
	}
	if err := p.AS.MapRange(vaddr, frames, false); err != nil {
		return nil, err
	}
	return frames, nil
}

// AddIRQDevice routes an interrupt line to a core, attaches a
// programmable one-shot timer device to it, and returns the IRQ_Handler
// object to install as a capability.
func (k *Kernel) AddIRQDevice(line, core int) *IRQHandler {
	k.M.IRQ.Route(line, core)
	t := k.M.AddTimer(line)
	return &IRQHandler{Line: line, Timer: t}
}

// GrantBootImageCap installs the master Kernel_Image capability (with
// clone right) in p's CSpace, as the kernel does for the initial user
// process at boot (§4.1), returning the slot.
func (k *Kernel) GrantBootImageCap(p *Process) int {
	return p.CSpace.Install(Capability{
		Type:   CapKernelImage,
		Rights: RightRead | RightWrite | RightClone,
		Obj:    k.Images[0],
	})
}

// GrantKernelMemoryCap retypes pool frames into Kernel_Memory and
// installs its capability in p's CSpace, returning the slot.
func (k *Kernel) GrantKernelMemoryCap(p *Process, pool *memory.Pool) (int, error) {
	km, err := k.NewKernelMemory(pool)
	if err != nil {
		return 0, err
	}
	return p.CSpace.Install(Capability{Type: CapKernelMemory, Rights: RightRead | RightWrite, Obj: km}), nil
}

// Threads returns all threads ever created (tests, audits).
func (k *Kernel) Threads() []*TCB { return k.allThreads }
