package memory

// Snapshot codec (see internal/cache/snapshot.go for the conventions):
// mutable allocator, pool and page-table state round-trips through
// internal/enc so a booted machine can be forked. Free-list ORDER is
// part of the state — allocation is LIFO, so two allocators are
// behaviourally identical only if their lists match element for element.
//
// Frame lists are run lists (internal/enc): a colour's free list, carved
// in one descending stride, stays one run until frames return out of
// order. The allocation bitmap is not encoded: every frame in the
// allocator's range is either on exactly one free list or allocated, so
// the decoder derives the bitmap from the lists, and in doing so
// rejects a free frame listed twice, under the wrong colour or outside
// the range.

import (
	"fmt"

	"timeprotection/internal/enc"
)

// EncodePFNs appends a frame list to w as a run list.
func EncodePFNs(w *enc.Writer, fs []PFN) { enc.WriteRuns(w, fs) }

// DecodePFNs decodes a list EncodePFNs wrote, naming frames a manages.
// It rejects a frame outside a's range, and it caps the frames that all
// the lists decoded against a may name together at a's frame count —
// far above what any machine lists (each frame is named by its owner
// and perhaps its pool), but a bound a few input bytes cannot raise, so
// runs cannot turn a short input into a large allocation.
func DecodePFNs(r *enc.Reader, a *FrameAllocator) []PFN {
	fs := enc.ReadRuns[PFN](r, nil, a.total-a.listed)
	a.listed += len(fs)
	for _, f := range fs {
		if f < a.base || f-a.base >= PFN(a.total) {
			r.Failf("frame %d outside [%d,%d)", f, a.base, a.base+PFN(a.total))
			return nil
		}
	}
	return fs
}

// EncodeState appends the allocator's mutable state to w: its shape,
// then each colour's free list.
func (a *FrameAllocator) EncodeState(w *enc.Writer) {
	w.U64(uint64(a.base))
	w.Int(a.total)
	w.Int(a.numColours)
	for _, l := range a.free {
		EncodePFNs(w, l)
	}
}

// DecodeState restores allocator state into an allocator constructed
// over the same frame range and colour count, deriving the allocation
// bitmap from the free lists.
func (a *FrameAllocator) DecodeState(r *enc.Reader) error {
	base := PFN(r.U64())
	total := r.Int()
	colours := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if base != a.base || total != a.total || colours != a.numColours {
		return fmt.Errorf("memory: allocator shape mismatch (got base=%d total=%d colours=%d, want base=%d total=%d colours=%d)",
			base, total, colours, a.base, a.total, a.numColours)
	}
	for i := range a.allocated {
		a.allocated[i] = ^uint64(0)
	}
	if tail := a.total % 64; tail != 0 {
		a.allocated[len(a.allocated)-1] = 1<<tail - 1
	}
	a.listed = 0
	for c := range a.free {
		// Reuse each colour's existing backing: the constructor carved
		// every list at its colour's full share, which bounds the list.
		a.free[c] = enc.ReadRuns(r, a.free[c][:0], a.colourShare(c))
		if err := r.Err(); err != nil {
			return err
		}
		for _, f := range a.free[c] {
			switch {
			case !a.isAllocated(f):
				return fmt.Errorf("memory: frame %d free twice or outside [%d,%d)", f, a.base, a.base+PFN(a.total))
			case ColourOf(f, a.numColours) != c:
				return fmt.Errorf("memory: frame %d on colour %d's free list", f, c)
			}
			a.setAllocated(f, false)
		}
	}
	return r.Err()
}

// colourShare returns the number of frames of colour c in the
// allocator's range.
func (a *FrameAllocator) colourShare(c int) int {
	first := (c - ColourOf(a.base, a.numColours) + a.numColours) % a.numColours
	if first >= a.total {
		return 0
	}
	return (a.total-1-first)/a.numColours + 1
}

// EncodeState appends the pool's mutable state to w. The backing
// allocator reference is supplied again at decode time.
func (p *Pool) EncodeState(w *enc.Writer) {
	w.Ints(p.colours)
	w.Int(p.next)
	EncodePFNs(w, p.frames)
}

// DecodePool reconstructs a pool over allocator a from EncodeState output.
func DecodePool(a *FrameAllocator, r *enc.Reader) (*Pool, error) {
	p := &Pool{
		alloc:   a,
		colours: r.Ints(),
		next:    r.Int(),
		frames:  DecodePFNs(r, a),
	}
	return p, r.Err()
}

// EncodeState appends the address space's translation state to w (the
// walk memo and last-table pointer are transient and excluded; the
// backing pool is supplied again at decode time): the tables in
// top-level order, then the mapped pages in VPN order, so the encoding
// is canonical.
func (as *AddressSpace) EncodeState(w *enc.Writer) {
	w.U64(uint64(as.asid))
	w.U64(uint64(as.root))
	tops := as.sortedTops()
	w.U64(uint64(len(tops)))
	for _, top := range tops {
		w.U64(top)
		w.U64(uint64(as.tables[top].frame))
	}
	w.U64(uint64(as.npages))
	for _, top := range tops {
		for i, e := range as.tables[top].ptes {
			if e != 0 {
				w.U64(top*l2TableSpan + uint64(i))
				w.U64(uint64(e.frame()))
				w.Bool(e.global())
			}
		}
	}
}

// DecodeAddressSpace reconstructs an address space backed by pool from
// EncodeState output. It rejects a page whose table was not decoded, a
// table or page listed twice, a table frame outside the pool's
// allocator or shared by two tables, and a frame no page-table entry
// can hold. Counts are checked against the bytes left, never trusted as
// sizes, and a table's 4 KiB of entries is allocated only when a page
// lands in it, so every such allocation costs the input a table and a
// page entry, at least five bytes.
func DecodeAddressSpace(pool *Pool, r *enc.Reader) (*AddressSpace, error) {
	as := &AddressSpace{
		asid:   uint16(r.U64()),
		root:   PFN(r.U64()),
		pool:   pool,
		tables: make(map[uint64]*pageTable),
	}
	nt := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nt > uint64(r.Remaining()) {
		return nil, fmt.Errorf("memory: %d page tables in %d bytes", nt, r.Remaining())
	}
	a := pool.alloc
	frames := make(map[PFN]bool)
	for i := uint64(0); i < nt; i++ {
		top, f := r.U64(), PFN(r.U64())
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch {
		case as.tables[top] != nil:
			return nil, fmt.Errorf("memory: page table %#x listed twice", top)
		case f < a.base || f-a.base >= PFN(a.total):
			return nil, fmt.Errorf("memory: page table %#x in frame %d outside [%d,%d)", top, f, a.base, a.base+PFN(a.total))
		case frames[f]:
			return nil, fmt.Errorf("memory: page table %#x shares frame %d", top, f)
		}
		frames[f] = true
		as.tables[top] = &pageTable{frame: f, ptes: &noPTEs}
	}
	np := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if np > uint64(r.Remaining()) {
		return nil, fmt.Errorf("memory: %d pages in %d bytes", np, r.Remaining())
	}
	for i := uint64(0); i < np; i++ {
		vpn, f, g := r.U64(), PFN(r.U64()), r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		t := as.tables[vpn/l2TableSpan]
		switch {
		case t == nil:
			return nil, fmt.Errorf("memory: page %#x has no page table", vpn)
		case t.ptes[vpn%l2TableSpan] != 0:
			return nil, fmt.Errorf("memory: page %#x listed twice", vpn)
		case f > maxFrame:
			return nil, fmt.Errorf("memory: page %#x maps frame %#x beyond %#x", vpn, f, maxFrame)
		}
		t.own()[vpn%l2TableSpan] = makePTE(f, g)
	}
	as.npages = int(np)
	return as, r.Err()
}
