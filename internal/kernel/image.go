package kernel

import (
	"fmt"
	"sort"

	"timeprotection/internal/memory"
	"timeprotection/internal/trace"
)

// Kernel virtual layout. Every image maps the same kernel virtual
// addresses onto its own physical frames; switching the page-directory
// pointer therefore switches the kernel implicitly (§4.3).
const (
	kTextBase   = 0xC000_0000 // kernel text + rodata
	kStackBase  = 0xC040_0000 // kernel stack
	kSharedBase = 0xC080_0000 // residual shared static data
	kFlushDBase = 0xC0C0_0000 // x86 manual L1-D flush buffer
	kFlushIBase = 0xC100_0000 // x86 manual L1-I flush (jump chain) buffer
)

// imageGeometry is the per-architecture size of a kernel image.
type imageGeometry struct {
	TextPages   int // text + read-only data (incl. vector table)
	StackPages  int
	FlushDPages int // x86 only: L1-D-sized load buffer
	FlushIPages int // x86 only: L1-I-sized jump-chain buffer
	PTPages     int // page-table frames for the kernel mappings
}

func geometryFor(arch string) imageGeometry {
	if arch == "x86" {
		// ~216 KiB per image incl. flush buffers (paper §4.4).
		return imageGeometry{TextPages: 36, StackPages: 1, FlushDPages: 8, FlushIPages: 8, PTPages: 1}
	}
	// Arm: ~120 KiB, no flush buffers (hardware set/way flushes).
	return imageGeometry{TextPages: 26, StackPages: 1, PTPages: 1}
}

// TotalPages returns the frame count of an image.
func (g imageGeometry) TotalPages() int {
	return g.TextPages + g.StackPages + g.FlushDPages + g.FlushIPages + g.PTPages
}

// KernelMemory is physical memory retyped for holding a kernel image —
// the analogue of Frame for kernel mappings (§4.1).
type KernelMemory struct {
	Frames []memory.PFN
	image  *Image // set once consumed by a clone
}

// NewKernelMemory retypes frames from a pool into Kernel_Memory of the
// right size for the platform's kernel image.
func (k *Kernel) NewKernelMemory(pool *memory.Pool) (*KernelMemory, error) {
	g := geometryFor(k.M.Plat.Arch)
	frames, err := pool.AllocN(g.TotalPages())
	if err != nil {
		return nil, fmt.Errorf("kernel memory: %w", err)
	}
	return &KernelMemory{Frames: frames}, nil
}

// Image is a Kernel_Image object: a kernel's text, stack, flush buffers
// and replicated global data, plus its interrupt associations and the
// configured switch-padding latency. The initial image is built at boot;
// further images are produced by Clone.
type Image struct {
	ID   int
	k    *Kernel
	geom imageGeometry

	text    []memory.PFN
	stack   memory.PFN
	flushD  []memory.PFN
	flushI  []memory.PFN
	ptFrame memory.PFN // backing for the kernel-mapping page tables

	mem *KernelMemory // nil for the boot image (its memory is never exposed)

	idle *TCB

	// IRQs associated with this kernel via Kernel_SetInt.
	irqs map[int]bool

	// PadCycles is the configured domain-switch latency (Requirement 4);
	// zero disables padding. Set via SetSwitchPadding by an authorised
	// holder of the image capability.
	PadCycles uint64

	// runningOn is the per-core bitmap used for safe destruction (§4.4).
	runningOn uint64

	// Clone genealogy: revoking a Kernel_Image destroys every kernel
	// cloned from it (§4.1), so each image tracks its clones.
	parent   *Image
	children []*Image

	zombie bool
}

// Parent returns the image this one was cloned from (nil for the boot
// image).
func (img *Image) Parent() *Image { return img.parent }

// Children returns the images cloned from this one that still exist.
func (img *Image) Children() []*Image {
	var out []*Image
	for _, c := range img.children {
		if !c.zombie {
			out = append(out, c)
		}
	}
	return out
}

// textPA maps a byte offset within kernel text to its physical address.
func (img *Image) textPA(off uint64) uint64 {
	return img.text[off/memory.PageSize].Addr() + off%memory.PageSize
}

// TextPAddr exposes the text mapping for attack calibration: a receiver
// that has located the kernel's syscall handlers derives its LLC attack
// sets from these addresses (Figure 3).
func (img *Image) TextPAddr(off uint64) uint64 { return img.textPA(off) }

// TextFrames returns the image's text frames (tests, audits).
func (img *Image) TextFrames() []memory.PFN { return img.text }

// stackPA maps a stack offset to its physical address.
func (img *Image) stackPA(off uint64) uint64 {
	return img.stack.Addr() + off%memory.PageSize
}

// walkAddrs returns the two PTE addresses a hardware walker would load
// to translate a kernel virtual page of this image.
func (img *Image) walkAddrs(vpn uint64) [2]uint64 {
	base := img.ptFrame.Addr()
	return [2]uint64{base + (vpn>>9%512)*8, base + 2048 + (vpn%256)*8}
}

// Zombie reports whether the image has been invalidated by destruction.
func (img *Image) Zombie() bool { return img.zombie }

// RunningOn returns the bitmap of cores currently executing this kernel.
func (img *Image) RunningOn() uint64 { return img.runningOn }

// IRQs returns the lines associated with this image in ascending
// order.
func (img *Image) IRQs() []int {
	out := make([]int, 0, len(img.irqs))
	for l := range img.irqs { // order-free: sorted below
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// SetSwitchPadding configures the image's domain-switch latency in
// cycles. Policy-free: the safe value is the holder's responsibility
// (it requires a worst-case analysis, §4.3).
func (img *Image) SetSwitchPadding(cycles uint64) { img.PadCycles = cycles }

// newBootImage builds the initial kernel image at boot time from
// machine-wide (uncoloured) memory. Its Kernel_Memory capability is
// never handed to userland, preserving the idle-thread invariant (§4.4).
func (k *Kernel) newBootImage() (*Image, error) {
	g := geometryFor(k.M.Plat.Arch)
	alloc := func(n int) ([]memory.PFN, error) {
		out := make([]memory.PFN, 0, n)
		for i := 0; i < n; i++ {
			f, err := k.M.Alloc.AllocAny()
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	text, err := alloc(g.TextPages)
	if err != nil {
		return nil, err
	}
	stack, err := alloc(g.StackPages)
	if err != nil {
		return nil, err
	}
	pt, err := alloc(g.PTPages)
	if err != nil {
		return nil, err
	}
	img := &Image{ID: 0, k: k, geom: g, text: text, stack: stack[0], ptFrame: pt[0], irqs: make(map[int]bool)}
	if g.FlushDPages > 0 {
		if img.flushD, err = alloc(g.FlushDPages); err != nil {
			return nil, err
		}
	}
	if g.FlushIPages > 0 {
		if img.flushI, err = alloc(g.FlushIPages); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// Clone implements Kernel_Clone (§4.1): it copies the source kernel's
// text, read-only data and stack into the supplied Kernel_Memory and
// initialises a new kernel image with its own idle thread. The copy is
// performed through the cache hierarchy on the invoking core, so its
// cost (Table 7) is a measured quantity, not a constant.
//
// src must carry the clone right at the capability layer; callers going
// through Env.KernelClone get that check, this entry point is the
// post-validation implementation.
func (k *Kernel) Clone(core int, src *Image, mem *KernelMemory) (*Image, error) {
	if src.zombie {
		return nil, ErrRevoked
	}
	if !k.Cfg.CloneSupport {
		return nil, fmt.Errorf("kernel: clone requires a colour-ready kernel (non-global mappings)")
	}
	if mem.image != nil {
		return nil, fmt.Errorf("kernel: Kernel_Memory already backs image %d", mem.image.ID)
	}
	g := src.geom
	if len(mem.Frames) < g.TotalPages() {
		return nil, fmt.Errorf("kernel: Kernel_Memory has %d frames, image needs %d", len(mem.Frames), g.TotalPages())
	}
	k.nextImageID++
	img := &Image{ID: k.nextImageID, k: k, geom: g, irqs: make(map[int]bool), mem: mem}
	next := 0
	take := func(n int) []memory.PFN {
		out := mem.Frames[next : next+n]
		next += n
		return out
	}
	img.text = take(g.TextPages)
	img.stack = take(g.StackPages)[0]
	img.ptFrame = take(g.PTPages)[0]
	if g.FlushDPages > 0 {
		img.flushD = take(g.FlushDPages)
	}
	if g.FlushIPages > 0 {
		img.flushI = take(g.FlushIPages)
	}

	lineSize := uint64(k.M.Plat.Hierarchy.L1D.LineSize)
	copyFrame := func(srcF, dstF memory.PFN) {
		for off := uint64(0); off < memory.PageSize; off += lineSize {
			k.M.PhysLoad(core, srcF.Addr()+off)
			k.M.PhysStore(core, dstF.Addr()+off)
		}
	}
	// Copy text + read-only data (incl. vector table) and the stack.
	for i, f := range src.text {
		copyFrame(f, img.text[i])
	}
	copyFrame(src.stack, img.stack)
	// Initialise the replicated globals and kernel page tables: one pass
	// of stores over the new image's PT frame.
	for off := uint64(0); off < memory.PageSize; off += lineSize {
		k.M.PhysStore(core, img.ptFrame.Addr()+off)
	}

	// Create the image's idle thread (kernel-internal, no user program).
	img.idle = &TCB{Name: fmt.Sprintf("idle/k%d", img.ID), Image: img, State: StateReady, isIdle: true, Prio: -1}
	mem.image = img
	img.parent = src
	src.children = append(src.children, img)
	k.Images = append(k.Images, img)
	k.emit(core, trace.KernelClone, uint64(src.ID), uint64(img.ID))
	return img, nil
}

// RevokeImage implements revocation of a Kernel_Image capability (§4.1):
// the image and every kernel cloned from it, transitively, are
// destroyed, deepest first. The boot image cannot be revoked.
func (k *Kernel) RevokeImage(core int, img *Image) error {
	for _, c := range img.children {
		if c.zombie {
			continue
		}
		if err := k.RevokeImage(core, c); err != nil {
			return err
		}
	}
	if img == k.Images[0] {
		// Revoking the master capability destroys the clones (above)
		// but the boot kernel itself is immortal (§4.4).
		return nil
	}
	if img.zombie {
		return nil
	}
	return k.DestroyImage(core, img)
}

// DestroyImage implements Kernel_Image destruction (§4.4): the image is
// invalidated (zombie), cores running it are stalled with IPIs and fall
// back to the boot kernel's idle thread, TLBs are shot down, and the
// image's threads are suspended. Destroying the boot image is refused:
// its memory was never given to userland.
func (k *Kernel) DestroyImage(core int, img *Image) error {
	if img == k.Images[0] {
		return fmt.Errorf("kernel: the initial kernel image is indestructible")
	}
	if img.zombie {
		return ErrRevoked
	}
	img.zombie = true
	k.emit(core, trace.KernelDestroy, uint64(img.ID), 0)

	// system_stall: IPI every core the zombie runs on; they reschedule
	// onto the boot kernel's idle thread and invalidate their TLBs.
	for c := range k.cores {
		if img.runningOn&(1<<uint(c)) == 0 {
			continue
		}
		k.M.Spin(core, ipiCost) // send IPI
		k.M.PhysStore(core, k.Shared.BarrierAddr())
		k.M.Spin(c, ipiCost)        // receive + handle
		k.M.Hier.TLBFlush(c, false) // TLB shoot-down
		cs := k.cores[c]
		if cs.cur != nil && cs.cur.Image == img {
			cs.cur = nil
		}
		cs.curImage = k.Images[0]
		img.runningOn &^= 1 << uint(c)
	}
	// Suspend all threads bound to the zombie.
	for _, t := range k.allThreads {
		if t.Image == img && t.State != StateDone {
			k.sched.Remove(t)
			t.State = StateSuspended
		}
	}
	// Clean the image's frames. On Arm this is a by-MVA cache clean per
	// frame (the dominant cost, Table 7: 67 us); x86 relies on physical
	// re-use being safe and pays only bookkeeping.
	if k.M.Plat.Arch == "arm" {
		for range img.mem.Frames {
			k.M.Spin(core, armFrameCleanCost)
		}
	} else {
		k.M.Spin(core, x86DestroyCost)
	}
	img.mem.image = nil
	return nil
}

// Destruction cost constants (cycles).
const (
	ipiCost           = 800
	armFrameCleanCost = 1500
	x86DestroyCost    = 1800
)
