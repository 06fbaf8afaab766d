package memory

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"timeprotection/internal/enc"
)

// asBlob hand-builds an address-space encoding from raw words: ASID and
// root, a table count and its (top, frame) pairs, then a page count and
// its (vpn, frame, global) triples. Counts are written as given, so a
// row can claim more entries than follow.
type asBlob struct {
	tables    [][2]uint64
	ntables   uint64
	pages     [][3]uint64
	npages    uint64
	truncated bool
}

func (b asBlob) bytes() []byte {
	var w enc.Writer
	w.U64(1) // asid
	w.U64(7) // root
	w.U64(b.ntables)
	for _, t := range b.tables {
		w.U64(t[0])
		w.U64(t[1])
	}
	w.U64(b.npages)
	for _, p := range b.pages {
		w.U64(p[0])
		w.U64(p[1])
		w.Bool(p[2] != 0)
	}
	out := w.Bytes()
	if b.truncated {
		out = out[:len(out)-1]
	}
	return out
}

// TestDecodeAddressSpaceRejectsCorruptBlobs feeds hand-built corrupt
// blobs to DecodeAddressSpace: each must return an error without a
// panic, and a count the blob cannot hold must not size an allocation.
func TestDecodeAddressSpaceRejectsCorruptBlobs(t *testing.T) {
	pool := NewPool(NewFrameAllocator(0, 64, 8), nil)
	cases := []struct {
		name string
		blob asBlob
		ok   bool
	}{
		{"well-formed", asBlob{
			tables: [][2]uint64{{0, 8}, {3, 9}}, ntables: 2,
			pages: [][3]uint64{{5, 20, 0}, {3*512 + 1, 21, 1}}, npages: 2,
		}, true},
		{"page without a page table", asBlob{
			tables: [][2]uint64{{0, 8}}, ntables: 1,
			pages: [][3]uint64{{512, 20, 0}}, npages: 1,
		}, false},
		{"page table listed twice", asBlob{
			tables: [][2]uint64{{0, 8}, {0, 9}}, ntables: 2,
		}, false},
		{"page listed twice", asBlob{
			tables: [][2]uint64{{0, 8}}, ntables: 1,
			pages: [][3]uint64{{5, 20, 0}, {5, 21, 0}}, npages: 2,
		}, false},
		{"frame beyond a page-table entry", asBlob{
			tables: [][2]uint64{{0, 8}}, ntables: 1,
			pages: [][3]uint64{{5, uint64(maxFrame) + 1, 0}}, npages: 1,
		}, false},
		{"page table beyond the allocator", asBlob{
			tables: [][2]uint64{{0, 64}}, ntables: 1,
		}, false},
		{"page tables sharing a frame", asBlob{
			tables: [][2]uint64{{0, 8}, {1, 8}}, ntables: 2,
		}, false},
		{"10,000 page tables on one frame", asBlob{
			tables: sameFrameTables(10000, 8), ntables: 10000,
		}, false},
		{"table count beyond the blob", asBlob{ntables: 1 << 62}, false},
		{"page count beyond the blob", asBlob{
			tables: [][2]uint64{{0, 8}}, ntables: 1, npages: 1 << 62,
		}, false},
		{"truncated page", asBlob{
			tables: [][2]uint64{{0, 8}}, ntables: 1,
			pages: [][3]uint64{{5, 20, 1}}, npages: 1, truncated: true,
		}, false},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: decode panicked: %v", tc.name, p)
				}
			}()
			as, err := DecodeAddressSpace(pool, enc.NewReader(tc.blob.bytes()))
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s: %v", tc.name, err)
			case !tc.ok && err == nil:
				t.Errorf("%s: decoded without an error", tc.name)
			case tc.ok && as.MappedPages() != len(tc.blob.pages):
				t.Errorf("%s: %d pages mapped, want %d", tc.name, as.MappedPages(), len(tc.blob.pages))
			}
		}()
	}
}

// sameFrameTables returns n page tables at top-level indices 0..n-1,
// every one in frame f.
func sameFrameTables(n int, f uint64) [][2]uint64 {
	ts := make([][2]uint64, n)
	for i := range ts {
		ts[i] = [2]uint64{uint64(i), f}
	}
	return ts
}

// TestDecodedEmptyTablesAllocateNoEntries: a table no page lands in
// shares the empty entry array, so a blob that lists many tables and
// no pages decodes into bookkeeping only, not 4 KiB per table. The
// first page mapped into such a table gives it its own entries.
func TestDecodedEmptyTablesAllocateNoEntries(t *testing.T) {
	const n = 10000
	pool := NewPool(NewFrameAllocator(0, 2*n, 8), nil)
	ts := make([][2]uint64, n)
	for i := range ts {
		ts[i] = [2]uint64{uint64(i), uint64(n + i)}
	}
	b := asBlob{tables: ts, ntables: n}.bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	as, err := DecodeAddressSpace(pool, enc.NewReader(b))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(b)); got > limit {
		t.Fatalf("decoding %d empty tables from %d bytes allocated %d bytes, want at most %d", n, len(b), got, limit)
	}
	if err := as.Map(3*PageSize, 5, false); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(512*PageSize, 6, false); err != nil {
		t.Fatal(err)
	}
	if noPTEs != ([l2TableSpan]pte{}) {
		t.Fatal("Map wrote the shared empty entry array")
	}
	for vpn, want := range map[uint64]PFN{3: 5, 512: 6} {
		if tr, ok := as.Translate(vpn * PageSize); !ok || tr.Frame != want {
			t.Fatalf("vpn %d: translation %+v, %v; want frame %d", vpn, tr, ok, want)
		}
	}
	if _, ok := as.Translate(4 * PageSize); ok {
		t.Fatal("an unmapped page in a decoded table translates")
	}
}

// encodeAllocator returns a's encoding.
func encodeAllocator(a *FrameAllocator) []byte {
	var w enc.Writer
	a.EncodeState(&w)
	return w.Bytes()
}

// TestAllocatorCodecRoundTrip drives allocators through random
// allocations, pinned allocations and frees, then checks that the
// encoding is canonical (Encode(Decode(Encode(a))) == Encode(a)), that
// the bitmap derived from the free lists equals the live one, and that
// a fresh allocator's free lists cost one run per colour.
func TestAllocatorCodecRoundTrip(t *testing.T) {
	fresh := NewFrameAllocator(16, 1000, 8)
	if n := len(encodeAllocator(fresh)); n > 8*6 {
		t.Fatalf("fresh allocator encodes to %d bytes, want one run per colour", n)
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewFrameAllocator(16, 1000, 8)
		var held []PFN
		for op := rng.Intn(2000); op > 0; op-- {
			switch k := rng.Intn(10); {
			case k < 5:
				if f, err := a.Alloc(rng.Intn(8)); err == nil {
					held = append(held, f)
				}
			case k < 6:
				if f := PFN(16 + rng.Intn(1000)); a.AllocPFN(f) {
					held = append(held, f)
				}
			case len(held) > 0:
				i := rng.Intn(len(held))
				if err := a.Free(held[i]); err != nil {
					t.Fatal(err)
				}
				held = append(held[:i], held[i+1:]...)
			}
		}
		want := encodeAllocator(a)
		dec := NewFrameAllocator(16, 1000, 8)
		if _, err := dec.Alloc(3); err != nil { // a non-fresh target
			t.Fatal(err)
		}
		if err := dec.DecodeState(enc.NewReader(want)); err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if got := encodeAllocator(dec); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: re-encoding changed the bytes", seed)
		}
		if fmt.Sprint(dec.allocated) != fmt.Sprint(a.allocated) {
			t.Fatalf("seed %d: derived allocation bitmap differs from the live one", seed)
		}
	}
}

// TestAllocatorDecodeRejects covers the free-list checks that replace
// the encoded bitmap, and the shared bound on the other frame lists.
func TestAllocatorDecodeRejects(t *testing.T) {
	// freeLists builds an encoding of a 4-colour, 16-frame allocator
	// at base 0 with the given free lists.
	freeLists := func(lists ...[]PFN) []byte {
		var w enc.Writer
		w.U64(0)
		w.Int(16)
		w.Int(4)
		for _, l := range lists {
			EncodePFNs(&w, l)
		}
		return w.Bytes()
	}
	cases := []struct {
		name string
		blob []byte
		ok   bool
	}{
		{"well-formed", freeLists([]PFN{12, 8, 4, 0}, []PFN{13, 9}, nil, []PFN{3}), true},
		{"frame free twice", freeLists([]PFN{12, 8, 12}, nil, nil, nil), false},
		{"frame on another colour's list", freeLists([]PFN{12, 9}, nil, nil, nil), false},
		{"frame outside the range", freeLists(nil, nil, nil, []PFN{19}), false},
		{"list longer than the colour's share", freeLists([]PFN{16, 12, 8, 4, 0}, nil, nil, nil), false},
		{"shape mismatch", append([]byte{0, 64}, freeLists(nil, nil, nil, nil)[2:]...), false},
	}
	for _, tc := range cases {
		a := NewFrameAllocator(0, 16, 4)
		err := a.DecodeState(enc.NewReader(tc.blob))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: decoded without an error", tc.name)
		}
	}

	a := NewFrameAllocator(0, 16, 4)
	var w enc.Writer
	EncodePFNs(&w, []PFN{3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	EncodePFNs(&w, []PFN{1, 2, 3, 4, 5, 6, 7})
	r := enc.NewReader(w.Bytes())
	if got := DecodePFNs(r, a); len(got) != 10 || r.Err() != nil {
		t.Fatalf("first list: %v, %v", got, r.Err())
	}
	if got := DecodePFNs(r, a); got != nil || r.Err() == nil {
		t.Fatalf("lists naming 17 frames of 16 decoded: %v", got)
	}
	w = enc.Writer{}
	EncodePFNs(&w, []PFN{20})
	r = enc.NewReader(w.Bytes())
	if got := DecodePFNs(r, NewFrameAllocator(0, 16, 4)); got != nil || r.Err() == nil {
		t.Fatalf("a frame outside the range decoded: %v", got)
	}
}
