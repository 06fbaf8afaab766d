package memory

import (
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
