// Package memory models physical memory: frame allocation with page
// colours, untyped memory regions in the style of seL4, and address
// spaces whose page tables themselves consume coloured frames (so that
// kernel metadata is partitioned exactly as user memory is — the
// property Figure 2 of the paper illustrates).
package memory

import (
	"errors"
	"fmt"
)

// PageBits is log2 of the page size. All platforms modelled use 4 KiB
// pages.
const PageBits = 12

// PageSize is the page size in bytes.
const PageSize = 1 << PageBits

// PFN is a physical frame number: physical address >> PageBits.
type PFN uint64

// Addr returns the physical base address of the frame.
func (p PFN) Addr() uint64 { return uint64(p) << PageBits }

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("memory: out of frames")

// ColourOf returns the page colour of a frame for a system with
// numColours colours. Colours are the physical-address bits that select
// the cache set above the page offset, so for power-of-two colour counts
// the colour is simply the low bits of the frame number.
func ColourOf(p PFN, numColours int) int {
	return int(uint64(p) % uint64(numColours))
}

// FrameAllocator hands out physical frames with per-colour free lists.
// It is the machine-wide authority; per-domain Pools draw from it.
// Allocation status lives in a bitmap over [base, base+total) rather
// than a map: every boot and clone marks thousands of frames, and the
// bitmap makes that allocation-free.
type FrameAllocator struct {
	numColours int
	free       [][]PFN // per colour, LIFO
	base       PFN
	total      int
	allocated  []uint64 // bit i set = frame base+i allocated
	// listed counts the frames named by the lists DecodePFNs decoded
	// against this allocator since its DecodeState: their shared bound.
	listed int
}

// NewFrameAllocator manages frames [base, base+count). numColours must
// divide the usable range meaningfully (it is the colour count of the
// colouring cache: L2 on x86, L2/LLC on Arm).
func NewFrameAllocator(base PFN, count, numColours int) *FrameAllocator {
	if numColours < 1 {
		panic("memory: numColours must be >= 1")
	}
	a := &FrameAllocator{
		numColours: numColours,
		free:       make([][]PFN, numColours),
		base:       base,
		total:      count,
		allocated:  make([]uint64, (count+63)/64),
	}
	// Carve every colour's free list out of one backing array, each
	// subslice capped at its colour's share so an append past it (frames
	// freed beyond the initial population) reallocates that list alone.
	// Growing the lists with bare append allocated log-many blocks per
	// colour on every boot and snapshot fork.
	counts := make([]int, numColours)
	for i := 0; i < count; i++ {
		counts[ColourOf(base+PFN(i), numColours)]++
	}
	backing := make([]PFN, count)
	off := 0
	for c := 0; c < numColours; c++ {
		a.free[c] = backing[off : off : off+counts[c]]
		off += counts[c]
	}
	// Push in reverse so allocation order is ascending.
	for i := count - 1; i >= 0; i-- {
		f := base + PFN(i)
		c := ColourOf(f, numColours)
		a.free[c] = append(a.free[c], f)
	}
	return a
}

// isAllocated reports the bitmap bit for f; frames outside the managed
// range are never allocated.
func (a *FrameAllocator) isAllocated(f PFN) bool {
	if f < a.base || f >= a.base+PFN(a.total) {
		return false
	}
	i := uint64(f - a.base)
	return a.allocated[i>>6]&(1<<(i&63)) != 0
}

// setAllocated flips the bitmap bit for a frame known to be in range.
func (a *FrameAllocator) setAllocated(f PFN, on bool) {
	i := uint64(f - a.base)
	if on {
		a.allocated[i>>6] |= 1 << (i & 63)
	} else {
		a.allocated[i>>6] &^= 1 << (i & 63)
	}
}

// NumColours returns the system colour count.
func (a *FrameAllocator) NumColours() int { return a.numColours }

// FreeFrames returns the number of currently free frames.
func (a *FrameAllocator) FreeFrames() int {
	n := 0
	for _, l := range a.free {
		n += len(l)
	}
	return n
}

// FreeOfColour returns the number of free frames of one colour.
func (a *FrameAllocator) FreeOfColour(c int) int { return len(a.free[c]) }

// Alloc allocates one frame of the given colour.
func (a *FrameAllocator) Alloc(colour int) (PFN, error) {
	if colour < 0 || colour >= a.numColours {
		return 0, fmt.Errorf("memory: colour %d out of range [0,%d)", colour, a.numColours)
	}
	l := a.free[colour]
	if len(l) == 0 {
		return 0, fmt.Errorf("%w: colour %d exhausted", ErrOutOfMemory, colour)
	}
	f := l[len(l)-1]
	a.free[colour] = l[:len(l)-1]
	a.setAllocated(f, true)
	return f, nil
}

// AllocPFN allocates a specific frame if it is free, reporting success.
// Pools use it to keep buffers physically contiguous where the colour
// discipline allows (contiguity matters to stream prefetchers).
func (a *FrameAllocator) AllocPFN(f PFN) bool {
	if a.isAllocated(f) {
		return false
	}
	c := ColourOf(f, a.numColours)
	l := a.free[c]
	for i := len(l) - 1; i >= 0; i-- {
		if l[i] == f {
			a.free[c] = append(l[:i], l[i+1:]...)
			a.setAllocated(f, true)
			return true
		}
	}
	return false
}

// AllocAny allocates a frame of any colour, rotating over colours so an
// uncoloured ("raw") system interleaves its footprint across the whole
// cache — the behaviour of a colour-blind allocator.
func (a *FrameAllocator) AllocAny() (PFN, error) {
	best := -1
	for c := 0; c < a.numColours; c++ {
		if len(a.free[c]) > 0 && (best < 0 || len(a.free[c]) > len(a.free[best])) {
			best = c
		}
	}
	if best < 0 {
		return 0, ErrOutOfMemory
	}
	return a.Alloc(best)
}

// Free returns a frame to its colour's free list.
func (a *FrameAllocator) Free(f PFN) error {
	if !a.isAllocated(f) {
		return fmt.Errorf("memory: double free or foreign frame %d", f)
	}
	a.setAllocated(f, false)
	c := ColourOf(f, a.numColours)
	a.free[c] = append(a.free[c], f)
	return nil
}

// Allocated reports whether f is currently allocated (tests, audits).
func (a *FrameAllocator) Allocated(f PFN) bool { return a.isAllocated(f) }

// Pool is a per-domain allocation context restricted to a colour set.
// An empty colour set means "any colour" (the unpartitioned raw system).
type Pool struct {
	alloc   *FrameAllocator
	colours []int
	next    int // round-robin cursor over colours
	// Frames tracks everything the pool handed out, for teardown.
	frames []PFN
}

// NewPool builds a pool over the given colours (nil/empty = all).
func NewPool(a *FrameAllocator, colours []int) *Pool {
	return &Pool{alloc: a, colours: append([]int(nil), colours...)}
}

// Colours returns the pool's colour set (nil means unrestricted).
func (p *Pool) Colours() []int { return p.colours }

// Alloc allocates one frame from the pool's colours, round-robin.
func (p *Pool) Alloc() (PFN, error) {
	if len(p.colours) == 0 {
		f, err := p.alloc.AllocAny()
		if err == nil {
			p.frames = append(p.frames, f)
		}
		return f, err
	}
	var firstErr error
	for i := 0; i < len(p.colours); i++ {
		c := p.colours[(p.next+i)%len(p.colours)]
		f, err := p.alloc.Alloc(c)
		if err == nil {
			p.next = (p.next + i + 1) % len(p.colours)
			p.frames = append(p.frames, f)
			return f, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, firstErr
}

// AllocN allocates n frames.
func (p *Pool) AllocN(n int) ([]PFN, error) {
	out := make([]PFN, 0, n)
	for i := 0; i < n; i++ {
		f, err := p.Alloc()
		if err != nil {
			// Roll back.
			for _, g := range out {
				_ = p.alloc.Free(g)
			}
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// FramesAllocated returns the number of frames the pool has handed out.
func (p *Pool) FramesAllocated() int { return len(p.frames) }

// HasColour reports whether c is in the pool's colour set.
func (p *Pool) HasColour(c int) bool {
	for _, x := range p.colours {
		if x == c {
			return true
		}
	}
	return false
}

// TransferColour re-partitions at colour granularity (paper §3.3:
// "re-partitioning is possible by moving memory colours between
// partitions"): colour c leaves this pool's set and joins dst's. Frames
// of that colour already handed out stay where they are (the caller is
// responsible for revoking them first if the move must be clean); the
// transfer governs future allocations.
func (p *Pool) TransferColour(c int, dst *Pool) error {
	if !p.HasColour(c) {
		return fmt.Errorf("memory: pool does not own colour %d", c)
	}
	if dst.HasColour(c) {
		return fmt.Errorf("memory: destination already owns colour %d", c)
	}
	if len(p.colours) == 1 {
		return fmt.Errorf("memory: cannot give away the last colour")
	}
	for i, x := range p.colours {
		if x == c {
			p.colours = append(p.colours[:i], p.colours[i+1:]...)
			break
		}
	}
	p.next = 0
	dst.colours = append(dst.colours, c)
	return nil
}

// TransferAll moves every colour to dst — the teardown path: a destroyed
// partition cedes its whole allocation to a survivor (unlike
// TransferColour, which keeps live pools non-empty).
func (p *Pool) TransferAll(dst *Pool) error {
	for _, c := range p.colours {
		if dst.HasColour(c) {
			return fmt.Errorf("memory: destination already owns colour %d", c)
		}
	}
	dst.colours = append(dst.colours, p.colours...)
	p.colours = nil
	p.next = 0
	return nil
}

// Subdivide splits the pool's colour set into k child pools (nested
// partitioning, §3.3: "a partition can sub-divide with new kernel
// clones, as long as it has sufficient Untyped memory and more than one
// page colour left"). The parent keeps its colours (children draw from
// the same allocator); it is the caller's policy to stop using them.
func (p *Pool) Subdivide(k int) ([]*Pool, error) {
	if len(p.colours) < k || k < 2 {
		return nil, fmt.Errorf("memory: cannot split %d colours into %d pools", len(p.colours), k)
	}
	per := len(p.colours) / k
	extra := len(p.colours) % k
	var out []*Pool
	idx := 0
	for i := 0; i < k; i++ {
		n := per
		if i < extra {
			n++
		}
		out = append(out, NewPool(p.alloc, p.colours[idx:idx+n]))
		idx += n
	}
	return out, nil
}

// Release frees every frame the pool ever allocated (domain teardown).
func (p *Pool) Release() {
	for _, f := range p.frames {
		_ = p.alloc.Free(f)
	}
	p.frames = nil
}

// SplitColours partitions the full colour range [0, n) into k contiguous
// groups, returning the groups in order. Used by the init process to
// divide memory between domains (e.g. 50%/50% for two domains).
func SplitColours(n, k int) [][]int {
	if k < 1 {
		return nil
	}
	out := make([][]int, k)
	base, extra := n/k, n%k
	c := 0
	for i := 0; i < k; i++ {
		sz := base
		if i < extra {
			sz++
		}
		for j := 0; j < sz; j++ {
			out[i] = append(out[i], c)
			c++
		}
	}
	return out
}

// ColourShare returns the first ceil(frac * n) colours of [0, n): the
// "75% colours" / "50% colours" configurations of Figure 7.
func ColourShare(n int, frac float64) []int {
	m := int(frac*float64(n) + 0.5)
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}
