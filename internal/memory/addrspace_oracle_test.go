package memory

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"timeprotection/internal/enc"
)

// mapAddressSpace is the original map-based address space: one Go map
// from top-level index to table frame and one from VPN to entry, with
// no walk memo. It is the reference the two-level tables are held to.
type mapAddressSpace struct {
	asid   uint16
	pool   *Pool
	root   PFN
	tables map[uint64]PFN
	pages  map[uint64]mapPTE
}

type mapPTE struct {
	frame  PFN
	global bool
}

func newMapAddressSpace(asid uint16, pool *Pool) (*mapAddressSpace, error) {
	root, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	return &mapAddressSpace{asid: asid, pool: pool, root: root,
		tables: map[uint64]PFN{}, pages: map[uint64]mapPTE{}}, nil
}

func (as *mapAddressSpace) Map(vaddr uint64, frame PFN, global bool) error {
	vpn := vaddr >> PageBits
	top := vpn / l2TableSpan
	if _, ok := as.tables[top]; !ok {
		f, err := as.pool.Alloc()
		if err != nil {
			return fmt.Errorf("page table for vpn %#x: %w", vpn, err)
		}
		as.tables[top] = f
	}
	as.pages[vpn] = mapPTE{frame: frame, global: global}
	return nil
}

func (as *mapAddressSpace) Unmap(vaddr uint64) { delete(as.pages, vaddr>>PageBits) }

func (as *mapAddressSpace) Translate(vaddr uint64) (Translation, bool) {
	vpn := vaddr >> PageBits
	e, ok := as.pages[vpn]
	if !ok {
		return Translation{}, false
	}
	top := vpn / l2TableSpan
	return Translation{
		PAddr:  e.frame.Addr() | (vaddr & (PageSize - 1)),
		Frame:  e.frame,
		Global: e.global,
		Walk: [2]uint64{
			as.root.Addr() + (top%l2TableSpan)*8,
			as.tables[top].Addr() + (vpn%l2TableSpan)*8,
		},
	}, true
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Frames lists the root, the tables by top-level index, then the mapped
// frames by VPN.
func (as *mapAddressSpace) Frames() []PFN {
	out := []PFN{as.root}
	for _, k := range sortedKeys(as.tables) {
		out = append(out, as.tables[k])
	}
	for _, k := range sortedKeys(as.pages) {
		out = append(out, as.pages[k].frame)
	}
	return out
}

func (as *mapAddressSpace) EncodeState(w *enc.Writer) {
	w.U64(uint64(as.asid))
	w.U64(uint64(as.root))
	tops := sortedKeys(as.tables)
	w.U64(uint64(len(tops)))
	for _, k := range tops {
		w.U64(k)
		w.U64(uint64(as.tables[k]))
	}
	vpns := sortedKeys(as.pages)
	w.U64(uint64(len(vpns)))
	for _, k := range vpns {
		e := as.pages[k]
		w.U64(k)
		w.U64(uint64(e.frame))
		w.Bool(e.global)
	}
}

type stateEncoder interface{ EncodeState(*enc.Writer) }

func encodeAS(as stateEncoder) []byte {
	var w enc.Writer
	as.EncodeState(&w)
	return w.Bytes()
}

// TestAddressSpaceTableDifferential runs random Map, Unmap and
// Translate sequences through the table-based AddressSpace and the map
// reference, each over its own identically built pool, and requires
// equal results, page counts, frame lists and encodings after every
// operation. VPNs cluster in a few tables, some straddling a table
// boundary, so walks both stay in the last table and change tables; a
// decode round trip mid-sequence rebuilds the tables from the bytes.
func TestAddressSpaceTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pa, pb := NewPool(NewFrameAllocator(0, 4096, 8), nil), NewPool(NewFrameAllocator(0, 4096, 8), nil)
			got, err := NewAddressSpace(3, pa)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newMapAddressSpace(3, pb)
			if err != nil {
				t.Fatal(err)
			}
			bases := []uint64{0, 511 - 8, 0x40000 - 4, 0x7FFF_F000}
			vaddr := func() uint64 {
				vpn := bases[rng.Intn(len(bases))] + uint64(rng.Intn(24))
				return vpn<<PageBits | uint64(rng.Intn(PageSize))
			}
			for op := 0; op < 20000; op++ {
				what := ""
				switch k := rng.Intn(100); {
				case k < 20:
					va, f, g := vaddr(), PFN(rng.Intn(1<<20)), rng.Intn(4) == 0
					what = fmt.Sprintf("Map(%#x, %d, %v)", va, f, g)
					e1, e2 := got.Map(va, f, g), ref.Map(va, f, g)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("op %d %s: error %v, reference %v", op, what, e1, e2)
					}
				case k < 30:
					va := vaddr()
					what = fmt.Sprintf("Unmap(%#x)", va)
					got.Unmap(va)
					ref.Unmap(va)
				case k < 31:
					what = "round trip"
					var w enc.Writer
					got.EncodeState(&w)
					if got, err = DecodeAddressSpace(pa, enc.NewReader(w.Bytes())); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				default:
					va := vaddr()
					what = fmt.Sprintf("Translate(%#x)", va)
					tr1, ok1 := got.Translate(va)
					tr2, ok2 := ref.Translate(va)
					if tr1 != tr2 || ok1 != ok2 {
						t.Fatalf("op %d %s: %+v %v, reference %+v %v", op, what, tr1, ok1, tr2, ok2)
					}
				}
				if got.MappedPages() != len(ref.pages) {
					t.Fatalf("op %d %s: %d pages mapped, reference %d", op, what, got.MappedPages(), len(ref.pages))
				}
				if !bytes.Equal(encodeAS(got), encodeAS(ref)) {
					t.Fatalf("op %d %s: encodings diverge", op, what)
				}
				if op%97 == 0 && !slices.Equal(got.Frames(), ref.Frames()) {
					t.Fatalf("op %d %s: frames %v, reference %v", op, what, got.Frames(), ref.Frames())
				}
			}
		})
	}
}
