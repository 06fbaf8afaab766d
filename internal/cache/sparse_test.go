package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"timeprotection/internal/enc"
)

// codecUnit is what the round-trip test needs of an encodable unit.
type codecUnit interface {
	EncodeState(*enc.Writer)
	DecodeState(*enc.Reader) error
}

func encodeUnit(u codecUnit) []byte {
	var w enc.Writer
	u.EncodeState(&w)
	return w.Bytes()
}

var (
	sparseTLB = TLBConfig{Name: "DTLB", Entries: 64, Ways: 4}
	sparseBTB = BTBConfig{Entries: 256, Ways: 4, MispredictPenalty: 16}
	sparseBHB = BHBConfig{HistoryBits: 8, TableBits: 8, MispredictPenalty: 16}
)

// driveUnits builds a TLB, a BTB, a BHB and a cache and feeds each
// rounds random operations (flushes included) from rng.
func driveUnits(rng *rand.Rand, rounds int) []codecUnit {
	tlb, btb, bhb, c := NewTLB(sparseTLB), NewBTB(sparseBTB), NewBHB(sparseBHB), New(tinyL1)
	for i := 0; i < rounds; i++ {
		vpn := uint64(rng.Intn(256))
		pc := uint64(rng.Intn(1<<12)) << 2
		switch k := rng.Intn(40); {
		case k == 0:
			tlb.FlushAll(rng.Intn(2) == 0)
			btb.Flush()
			bhb.Flush()
			c.Flush()
		default:
			if !tlb.Lookup(vpn, uint16(rng.Intn(3))) {
				tlb.Insert(vpn, uint16(rng.Intn(3)), rng.Intn(4) == 0)
			}
			btb.Branch(pc, pc+uint64(rng.Intn(4))*64)
			bhb.CondBranch(pc, rng.Intn(3) != 0)
			addr := uint64(rng.Intn(1 << 16))
			c.Access(addr, addr, rng.Intn(3) == 0)
		}
	}
	return []codecUnit{tlb, btb, bhb, c}
}

// TestSparseCodecRoundTrip checks that each sparse codec is canonical on
// random-operation states: Encode(Decode(Encode(x))) == Encode(x), also
// when the decode target is not fresh but carries another history, so
// the slots the encoding skips must decode pristine.
func TestSparseCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rounds := rng.Intn(3000)
		src := driveUnits(rng, rounds)
		fresh := driveUnits(rng, 0)
		dirty := driveUnits(rng, 1+rng.Intn(3000))
		for i, u := range src {
			want := encodeUnit(u)
			for _, dst := range []codecUnit{fresh[i], dirty[i]} {
				if err := dst.DecodeState(enc.NewReader(want)); err != nil {
					t.Fatalf("seed %d unit %d: decode: %v", seed, i, err)
				}
				if got := encodeUnit(dst); !bytes.Equal(got, want) {
					t.Fatalf("seed %d unit %d (%T): re-encoding the decoded unit changed its bytes", seed, i, u)
				}
			}
		}
	}
}

// TestSparseCodecPristineIsTiny pins the point of the sparse codecs: a
// unit in its freshly built state encodes to a few bytes whatever its
// size.
func TestSparseCodecPristineIsTiny(t *testing.T) {
	big := Config{Name: "L3", Size: 8 << 20, Ways: 16, LineSize: 64, HitLatency: 40}
	for _, u := range []codecUnit{
		New(big),
		NewTLB(TLBConfig{Name: "L2TLB", Entries: 1024, Ways: 8}),
		NewBTB(BTBConfig{Entries: 4096, Ways: 4}),
		NewBHB(BHBConfig{HistoryBits: 16, TableBits: 14}),
	} {
		if n := len(encodeUnit(u)); n > 4 {
			t.Errorf("%T: pristine state encodes to %d bytes, want at most 4", u, n)
		}
	}
}

// TestSparseDecodeRejects gives each TLB, BTB and BHB rejection rule a
// hand-built blob; the ok rows check that the blobs themselves are sound.
func TestSparseDecodeRejects(t *testing.T) {
	tlbBlob := func(tick, gap, asid, stamp uint64, global byte) []byte {
		b := rawBlob(tick, gap, 7, asid, stamp)
		b = append(b, global)
		return append(b, rawBlob(64-(gap-1))...)
	}
	cases := []struct {
		name string
		u    codecUnit
		blob []byte
		ok   bool
	}{
		{"tlb well-formed", NewTLB(sparseTLB), tlbBlob(5, 3, 1, 4, 1), true},
		{"tlb ASID beyond 16 bits", NewTLB(sparseTLB), tlbBlob(5, 3, 1<<16, 4, 0), false},
		{"tlb entry stamped after the clock", NewTLB(sparseTLB), tlbBlob(5, 3, 1, 6, 0), false},
		{"tlb global byte neither 0 nor 1", NewTLB(sparseTLB), tlbBlob(5, 3, 1, 4, 2), false},
		{"tlb index repeated", NewTLB(sparseTLB), append(append(rawBlob(5, 1, 7, 1, 4), 0), append(rawBlob(0, 7, 1, 4), 0, 64)...), false},
		{"tlb index beyond the entries", NewTLB(sparseTLB), rawBlob(5, 66), false},
		{"btb well-formed", NewBTB(sparseBTB), rawBlob(9, 1, 0x40, 0x80, 9, 256), true},
		{"btb entry stamped after the clock", NewBTB(sparseBTB), rawBlob(9, 1, 0x40, 0x80, 10, 256), false},
		{"btb index repeated", NewBTB(sparseBTB), rawBlob(9, 1, 0x40, 0x80, 9, 0, 0x44, 0x80, 8, 256), false},
		{"bhb well-formed", NewBHB(sparseBHB), rawBlob(0xA5, 3, 3, 254), true},
		{"bhb counter at its reset value", NewBHB(sparseBHB), rawBlob(0xA5, 3, 1, 254), false},
		{"bhb counter beyond 2 bits", NewBHB(sparseBHB), rawBlob(0xA5, 3, 4, 254), false},
		{"bhb history beyond its bits", NewBHB(sparseBHB), rawBlob(0x1A5, 257), false},
		{"bhb index repeated", NewBHB(sparseBHB), rawBlob(0, 3, 3, 0, 2, 254), false},
		{"bhb non-minimal varint", NewBHB(sparseBHB), []byte{0x80, 0x00, 0x81, 0x02}, false},
	}
	for _, tc := range cases {
		err := decodeSafely(t, tc.name, func() error { return tc.u.DecodeState(enc.NewReader(tc.blob)) })
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: decoded without an error", tc.name)
		}
	}
}
