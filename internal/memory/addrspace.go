package memory

import (
	"fmt"
	"slices"
)

// pte is one page-table entry: the mapped frame above a present and a
// global bit. The zero entry is an unmapped page.
type pte uint64

const (
	ptePresent pte = 1 << iota
	pteGlobal
	pteFlagBits = iota
)

// maxFrame bounds the frames a pte can hold.
const maxFrame = PFN(1)<<(64-pteFlagBits) - 1

func (e pte) frame() PFN   { return PFN(e >> pteFlagBits) }
func (e pte) global() bool { return e&pteGlobal != 0 }

func makePTE(frame PFN, global bool) pte {
	e := pte(frame)<<pteFlagBits | ptePresent
	if global {
		e |= pteGlobal
	}
	return e
}

// l2TableSpan is the number of pages covered by one second-level page
// table (512 entries of 8 bytes in a 4 KiB frame, as on x86-64's last
// level).
const l2TableSpan = 512

// pageTable is one second-level table: the frame it occupies and its
// entries, indexed by the low nine bits of the VPN. A decoded table no
// page has landed in shares noPTEs, so a snapshot's table list costs
// no entry arrays; Map gives such a table its own entries before it
// writes one.
type pageTable struct {
	frame PFN
	ptes  *[l2TableSpan]pte
}

// noPTEs is the entry array of every decoded table that no page has
// landed in. Nothing writes it: Map and the decoder replace it before
// storing an entry, and Unmap clears only present entries.
var noPTEs [l2TableSpan]pte

// own returns t's entries, replacing the shared empty array with t's
// own first.
func (t *pageTable) own() *[l2TableSpan]pte {
	if t.ptes == &noPTEs {
		t.ptes = new([l2TableSpan]pte)
	}
	return t.ptes
}

// AddressSpace is a two-level page table plus an ASID. Page-table frames
// are allocated from the owning pool, so in a coloured system the
// translation structures themselves are coloured — which is why
// partitioning user memory "automatically partitions dynamic kernel
// data" (paper §5.3.1) and defeats page-table side channels.
type AddressSpace struct {
	asid   uint16
	pool   *Pool
	root   PFN
	tables map[uint64]*pageTable // top-level index -> second-level table
	npages int                   // present entries over all tables

	// The table of the last walk. Tables are never freed, so it stays
	// valid across Map and Unmap, and a walk that changes page within
	// it skips the map lookup.
	lastTop uint64
	last    *pageTable

	// One-entry walk memo. Successive accesses overwhelmingly hit the
	// same page, so this skips the table walk on the hot path. Map and
	// Unmap are the only mutators of the translation structures and both
	// invalidate it.
	memoOK  bool
	memoVPN uint64
	memoTr  Translation
}

// NewAddressSpace creates an empty address space with the given ASID,
// drawing its root page-table frame from pool.
func NewAddressSpace(asid uint16, pool *Pool) (*AddressSpace, error) {
	root, err := pool.Alloc()
	if err != nil {
		return nil, fmt.Errorf("address space root: %w", err)
	}
	return &AddressSpace{
		asid:   asid,
		pool:   pool,
		root:   root,
		tables: make(map[uint64]*pageTable),
	}, nil
}

// ASID returns the address-space identifier.
func (as *AddressSpace) ASID() uint16 { return as.asid }

// Pool returns the pool backing this address space's metadata.
func (as *AddressSpace) Pool() *Pool { return as.pool }

// RootFrame returns the root page-table frame (tests, audits).
func (as *AddressSpace) RootFrame() PFN { return as.root }

// MappedPages returns the number of mapped pages.
func (as *AddressSpace) MappedPages() int { return as.npages }

// Map installs a translation from the page containing vaddr to frame.
// Global mappings survive per-ASID TLB flushes (kernel mappings in the
// unmodified kernel). Second-level table frames are allocated lazily
// from the pool.
func (as *AddressSpace) Map(vaddr uint64, frame PFN, global bool) error {
	vpn := vaddr >> PageBits
	if frame > maxFrame {
		return fmt.Errorf("map vpn %#x: frame %#x beyond the page-table entry's %#x", vpn, frame, maxFrame)
	}
	top := vpn / l2TableSpan
	t := as.tables[top]
	if t == nil {
		f, err := as.pool.Alloc()
		if err != nil {
			return fmt.Errorf("page table for vpn %#x: %w", vpn, err)
		}
		t = &pageTable{frame: f, ptes: new([l2TableSpan]pte)}
		as.tables[top] = t
	}
	e := &t.own()[vpn%l2TableSpan]
	if *e == 0 {
		as.npages++
	}
	*e = makePTE(frame, global)
	as.memoOK = false
	return nil
}

// MapRange maps n consecutive pages starting at vaddr to the given
// frames (len(frames) must be >= n).
func (as *AddressSpace) MapRange(vaddr uint64, frames []PFN, global bool) error {
	for i, f := range frames {
		if err := as.Map(vaddr+uint64(i)*PageSize, f, global); err != nil {
			return err
		}
	}
	return nil
}

// Unmap removes the translation for the page containing vaddr. The
// second-level table stays, as it does in the hardware-walked layout.
func (as *AddressSpace) Unmap(vaddr uint64) {
	vpn := vaddr >> PageBits
	if t := as.tables[vpn/l2TableSpan]; t != nil && t.ptes[vpn%l2TableSpan] != 0 {
		t.ptes[vpn%l2TableSpan] = 0
		as.npages--
	}
	as.memoOK = false
}

// Translation is the result of a page-table walk.
type Translation struct {
	PAddr  uint64    // full physical address (frame base + offset)
	Frame  PFN       // mapped frame
	Global bool      // global mapping (kernel, unmodified configuration)
	Walk   [2]uint64 // physical addresses of the two PTEs a walker loads
}

// Translate walks the page table for vaddr. The returned Walk addresses
// are what a hardware walker would load; the machine layer issues them
// as data accesses so that page-table placement (coloured or not) has
// its real cache footprint.
func (as *AddressSpace) Translate(vaddr uint64) (Translation, bool) {
	vpn := vaddr >> PageBits
	if as.memoOK && vpn == as.memoVPN {
		tr := as.memoTr
		tr.PAddr = tr.Frame.Addr() | (vaddr & (PageSize - 1))
		return tr, true
	}
	top := vpn / l2TableSpan
	t := as.last
	if t == nil || as.lastTop != top {
		if t = as.tables[top]; t == nil {
			return Translation{}, false
		}
		as.last, as.lastTop = t, top
	}
	second := vpn % l2TableSpan
	e := t.ptes[second]
	if e == 0 {
		return Translation{}, false
	}
	tr := Translation{
		PAddr:  e.frame().Addr() | (vaddr & (PageSize - 1)),
		Frame:  e.frame(),
		Global: e.global(),
		Walk: [2]uint64{
			as.root.Addr() + (top%l2TableSpan)*8,
			t.frame.Addr() + second*8,
		},
	}
	as.memoOK, as.memoVPN, as.memoTr = true, vpn, tr
	return tr, true
}

// sortedTops returns the top-level indices of the second-level tables
// in ascending order.
func (as *AddressSpace) sortedTops() []uint64 {
	tops := make([]uint64, 0, len(as.tables))
	for top := range as.tables {
		tops = append(tops, top)
	}
	slices.Sort(tops)
	return tops
}

// Frames enumerates every physical frame the address space references:
// the root table, the second-level tables by top-level index, then the
// mapped frames by VPN. Auditing code uses it to verify colour
// discipline, and the fixed order makes its reports reproducible.
func (as *AddressSpace) Frames() []PFN {
	tops := as.sortedTops()
	out := make([]PFN, 0, 1+len(tops)+as.npages)
	out = append(out, as.root)
	for _, top := range tops {
		out = append(out, as.tables[top].frame)
	}
	for _, top := range tops {
		for _, e := range as.tables[top].ptes {
			if e != 0 {
				out = append(out, e.frame())
			}
		}
	}
	return out
}

// Untyped is a region of physical frames not yet retyped into kernel or
// user objects — the seL4 abstraction through which all memory reaches
// the kernel. Retyping consumes frames monotonically; revoking the
// untyped returns everything.
type Untyped struct {
	frames []PFN
	used   int
}

// NewUntyped wraps frames as an untyped region.
func NewUntyped(frames []PFN) *Untyped {
	return &Untyped{frames: frames}
}

// Size returns the total number of frames.
func (u *Untyped) Size() int { return len(u.frames) }

// Remaining returns the number of frames not yet retyped.
func (u *Untyped) Remaining() int { return len(u.frames) - u.used }

// Retype consumes n frames from the region.
func (u *Untyped) Retype(n int) ([]PFN, error) {
	if u.Remaining() < n {
		return nil, fmt.Errorf("%w: untyped has %d frames, need %d", ErrOutOfMemory, u.Remaining(), n)
	}
	out := u.frames[u.used : u.used+n]
	u.used += n
	return out, nil
}

// Reset reclaims all retyped frames (models revoking children).
func (u *Untyped) Reset() { u.used = 0 }
