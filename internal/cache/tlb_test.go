package cache

import (
	"testing"
	"testing/quick"
)

func testTLB() *TLB {
	return NewTLB(TLBConfig{Name: "t", Entries: 64, Ways: 4})
}

func TestTLBLookupInsert(t *testing.T) {
	tlb := testTLB()
	if tlb.Lookup(5, 1) {
		t.Fatal("empty TLB should miss")
	}
	tlb.Insert(5, 1, false)
	if !tlb.Lookup(5, 1) {
		t.Fatal("inserted entry should hit")
	}
	if tlb.Lookup(5, 2) {
		t.Fatal("different ASID should miss on non-global entry")
	}
}

func TestTLBGlobalMatchesAnyASID(t *testing.T) {
	tlb := testTLB()
	tlb.Insert(7, 1, true)
	for asid := uint16(0); asid < 5; asid++ {
		if !tlb.Lookup(7, asid) {
			t.Fatalf("global entry should match ASID %d", asid)
		}
	}
}

func TestTLBFlushKeepGlobal(t *testing.T) {
	tlb := testTLB()
	tlb.Insert(1, 1, false)
	tlb.Insert(2, 1, true)
	dropped := tlb.FlushAll(true)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if tlb.Contains(1, 1) {
		t.Error("non-global entry survived flush")
	}
	if !tlb.Contains(2, 1) {
		t.Error("global entry did not survive keepGlobal flush")
	}
	if tlb.FlushAll(false) != 1 {
		t.Error("full flush should drop the global entry")
	}
	if tlb.ValidEntries() != 0 {
		t.Error("entries remain after full flush")
	}
}

func TestTLBSetConflicts(t *testing.T) {
	// 16 sets, 4 ways: 5 pages mapping to the same set evict the LRU.
	tlb := testTLB()
	sets := uint64(tlb.Sets())
	for i := uint64(0); i < 5; i++ {
		tlb.Insert(i*sets, 1, false)
	}
	if tlb.Contains(0, 1) {
		t.Error("LRU entry should have been evicted")
	}
	for i := uint64(1); i < 5; i++ {
		if !tlb.Contains(i*sets, 1) {
			t.Errorf("entry %d evicted unexpectedly", i)
		}
	}
}

// The Table 5 mechanism: with per-ASID (non-global) kernel mappings, the
// same kernel pages occupy one entry per address space, doubling the
// pressure on a low-associativity TLB.
func TestTLBNonGlobalKernelMappingsIncreasePressure(t *testing.T) {
	lowAssoc := NewTLB(TLBConfig{Name: "arm-l2tlb", Entries: 128, Ways: 2})
	sets := uint64(lowAssoc.Sets())
	kernelVPN := uint64(0xC0000) // maps to some set
	set := kernelVPN % sets
	userVPN := set // user page in the same set

	// Global kernel entry + one user entry per ASID: fits in 2 ways.
	lowAssoc.Insert(kernelVPN, 1, true)
	lowAssoc.Insert(userVPN, 1, false)
	if !lowAssoc.Contains(kernelVPN, 2) {
		t.Fatal("global kernel entry should serve ASID 2")
	}

	// Non-global kernel mappings: two ASIDs need two kernel entries in
	// the same set, plus user entries -> guaranteed conflict evictions.
	lowAssoc.FlushAll(false)
	lowAssoc.Insert(kernelVPN, 1, false)
	lowAssoc.Insert(kernelVPN, 2, false)
	lowAssoc.Insert(userVPN, 1, false) // evicts one of the kernel entries
	misses := 0
	if !lowAssoc.Lookup(kernelVPN, 1) {
		misses++
	}
	if !lowAssoc.Lookup(kernelVPN, 2) {
		misses++
	}
	if misses == 0 {
		t.Error("expected conflict misses with non-global kernel mappings in a 2-way TLB")
	}
}

func TestTLBLookupReportsHit(t *testing.T) {
	tlb := testTLB()
	if tlb.Lookup(1, 1) {
		t.Fatal("cold lookup hit")
	}
	tlb.Insert(1, 1, false)
	if !tlb.Lookup(1, 1) {
		t.Fatal("lookup after insert missed")
	}
}

// Property: capacity is never exceeded.
func TestPropertyTLBCapacity(t *testing.T) {
	f := func(vpns []uint16) bool {
		tlb := testTLB()
		for i, v := range vpns {
			tlb.Insert(uint64(v), uint16(i%4), i%5 == 0)
		}
		return tlb.ValidEntries() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an inserted entry is immediately visible to Lookup.
func TestPropertyTLBInsertVisible(t *testing.T) {
	f := func(vpn uint32, asid uint16, global bool) bool {
		tlb := testTLB()
		tlb.Insert(uint64(vpn), asid, global)
		return tlb.Lookup(uint64(vpn), asid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
