package memory

// Snapshot codec (see internal/cache/snapshot.go for the conventions):
// mutable allocator, pool and page-table state round-trips through
// internal/enc so a booted machine can be forked. Free-list ORDER is
// part of the state — allocation is LIFO, so two allocators are
// behaviourally identical only if their lists match element for element.

import (
	"fmt"

	"timeprotection/internal/enc"
)

func EncodePFNs(w *enc.Writer, fs []PFN) {
	w.U64(uint64(len(fs)))
	for _, f := range fs {
		w.U64(uint64(f))
	}
}

func DecodePFNs(r *enc.Reader) []PFN {
	return decodePFNsInto(r, nil)
}

// decodePFNsInto decodes a PFN list into dst's backing storage,
// allocating only when the list outgrows dst's capacity. An empty list
// decodes to dst[:0] (length is what the allocator semantics observe;
// keeping the backing lets a forked machine reuse the free lists its
// constructor carved).
func decodePFNsInto(r *enc.Reader, dst []PFN) []PFN {
	n := int(r.U64())
	if r.Err() != nil || n <= 0 || n > r.Remaining() {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]PFN, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = PFN(r.U64())
	}
	return dst
}

// EncodeState appends the allocator's mutable state to w.
func (a *FrameAllocator) EncodeState(w *enc.Writer) {
	w.U64(uint64(a.base))
	w.Int(a.total)
	w.Int(a.numColours)
	for _, l := range a.free {
		EncodePFNs(w, l)
	}
	w.U64s(a.allocated)
}

// DecodeState restores allocator state into an allocator constructed
// over the same frame range and colour count.
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
	for c := range a.free {
		// Reuse each colour's existing backing: the constructor carved
		// every list at its colour's full share, and a decoded list can
		// never exceed it (a colour has only so many frames).
		a.free[c] = decodePFNsInto(r, a.free[c][:0])
	}
	bm := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(bm) > len(a.allocated) {
		return fmt.Errorf("memory: allocator bitmap length mismatch")
	}
	for i := range a.allocated {
		a.allocated[i] = 0
	}
	copy(a.allocated, bm)
	return nil
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
		frames:  DecodePFNs(r),
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
		for i, e := range &as.tables[top].ptes {
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
// table or page listed twice, and a frame no page-table entry can hold.
// Counts are checked against the bytes left, never trusted as sizes.
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
	for i := uint64(0); i < nt; i++ {
		top, f := r.U64(), PFN(r.U64())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if as.tables[top] != nil {
			return nil, fmt.Errorf("memory: page table %#x listed twice", top)
		}
		as.tables[top] = &pageTable{frame: f}
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
		t.ptes[vpn%l2TableSpan] = makePTE(f, g)
	}
	as.npages = int(np)
	return as, r.Err()
}

// EncodeState appends the untyped region's state to w.
func (u *Untyped) EncodeState(w *enc.Writer) {
	EncodePFNs(w, u.frames)
	w.Int(u.used)
}

// DecodeUntyped reconstructs an untyped region from EncodeState output.
func DecodeUntyped(r *enc.Reader) (*Untyped, error) {
	u := &Untyped{frames: DecodePFNs(r), used: r.Int()}
	return u, r.Err()
}
