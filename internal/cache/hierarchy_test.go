package cache

import "testing"

func testHierCfg() HierarchyConfig {
	return HierarchyConfig{
		Cores:     2,
		L1D:       Config{Name: "L1-D", Size: 4 * 1024, Ways: 4, LineSize: 64, HitLatency: 4, Virtual: true},
		L1I:       Config{Name: "L1-I", Size: 4 * 1024, Ways: 4, LineSize: 64, HitLatency: 4, Virtual: true},
		L2:        Config{Name: "L2", Size: 32 * 1024, Ways: 8, LineSize: 64, HitLatency: 12},
		L2Private: true,
		L3:        Config{Name: "L3", Size: 256 * 1024, Ways: 16, LineSize: 64, HitLatency: 40},
		ITLB:      TLBConfig{Name: "I-TLB", Entries: 16, Ways: 4},
		DTLB:      TLBConfig{Name: "D-TLB", Entries: 16, Ways: 4},
		L2TLB:     TLBConfig{Name: "L2-TLB", Entries: 64, Ways: 8},
		BTB:       BTBConfig{Entries: 64, Ways: 4, MispredictPenalty: 16},
		BHB:       BHBConfig{HistoryBits: 12, TableBits: 10, MispredictPenalty: 16},
		DataPrefetch: PrefetcherConfig{
			Streams: 16, Degree: 8, Trigger: 4, LineSize: 64,
		},
		MemLatency:       200,
		WritebackLatency: 8,
		L2TLBHitLatency:  7,
	}
}

func TestHierarchyLatencyLevels(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	addr := uint64(0x12340)
	// Cold: L1 + L2 + L3 + mem.
	want := 4 + 12 + 40 + 200
	if c := h.Data(0, addr, addr, false); c != want {
		t.Fatalf("cold access = %d cycles, want %d", c, want)
	}
	// Warm: L1 hit.
	if c := h.Data(0, addr, addr, false); c != 4 {
		t.Fatalf("L1 hit = %d cycles, want 4", c)
	}
	// Evict from L1 only (fill its set), then the line hits in L2.
	sets := uint64(h.L1D(0).Sets())
	for i := uint64(1); i <= 4; i++ {
		h.Data(0, addr+i*sets*64, addr+i*sets*64, false)
	}
	if c := h.Data(0, addr, addr, false); c != 4+12 {
		t.Fatalf("L2 hit = %d cycles, want %d", c, 4+12)
	}
}

func TestHierarchyPrivateL2Isolation(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	addr := uint64(0x40)
	h.Data(0, addr, addr, false)
	if h.L2For(1).Contains(addr, addr) {
		t.Fatal("core 1's private L2 should not see core 0's fill")
	}
	// But the shared L3 does.
	if !h.L3().Contains(addr, addr) {
		t.Fatal("shared L3 should hold the line")
	}
	// Core 1 access: misses L1+L2, hits L3.
	if c := h.Data(1, addr, addr, false); c != 4+12+40 {
		t.Fatalf("cross-core L3 hit = %d cycles, want %d", c, 4+12+40)
	}
}

func TestHierarchySharedL2(t *testing.T) {
	cfg := testHierCfg()
	cfg.L2Private = false
	cfg.L3 = Config{}
	h := NewHierarchy(cfg)
	if h.LLC() != h.L2For(0) || h.L2For(0) != h.L2For(1) {
		t.Fatal("shared-L2 platform should expose one L2 as the LLC")
	}
	addr := uint64(0x80)
	h.Data(0, addr, addr, false)
	// Core 1 hits in the shared L2.
	if c := h.Data(1, addr, addr, false); c != 4+12 {
		t.Fatalf("shared L2 hit from other core = %d, want 16", c)
	}
}

func TestHierarchyFetchUsesL1I(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	pc := uint64(0x1000)
	h.Fetch(0, pc, pc)
	if !h.L1I(0).Contains(pc, pc) {
		t.Fatal("fetch did not fill L1-I")
	}
	if h.L1D(0).Contains(pc, pc) {
		t.Fatal("fetch must not fill L1-D")
	}
}

func TestHierarchyDirtyWritebackToL2(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	addr := uint64(0x40)
	h.Data(0, addr, addr, true) // dirty in L1
	// Evict from L1 by filling its set.
	sets := uint64(h.L1D(0).Sets())
	for i := uint64(1); i <= 4; i++ {
		h.Data(0, addr+i*sets*64, addr+i*sets*64, false)
	}
	if h.L1D(0).Contains(addr, addr) {
		t.Fatal("line should have been evicted from L1")
	}
	if h.L2For(0).DirtyLines() == 0 {
		t.Fatal("dirty write-back did not reach L2")
	}
}

func TestHierarchyTLBPath(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	if lvl := h.TLBLevel(0, 5, 1, false); lvl != TLBMiss {
		t.Fatalf("cold TLB level = %d, want miss", lvl)
	}
	h.TLBInsert(0, 5, 1, false, false)
	if lvl := h.TLBLevel(0, 5, 1, false); lvl != TLBHitL1 {
		t.Fatalf("warm TLB level = %d, want L1 hit", lvl)
	}
	// Evict from the small D-TLB but not the larger L2 TLB.
	for v := uint64(100); v < 120; v++ {
		h.TLBInsert(0, v, 1, false, false)
	}
	lvl := h.TLBLevel(0, 5, 1, false)
	if lvl == TLBMiss {
		t.Fatalf("entry should still be in the L2 TLB")
	}
	// Flushing drops everything non-global.
	h.TLBInsert(0, 7, 1, true, false)
	h.TLBFlush(0, true)
	if h.TLBLevel(0, 5, 1, false) != TLBMiss {
		t.Error("non-global entry survived flush")
	}
	if h.TLBLevel(0, 7, 1, false) == TLBMiss {
		t.Error("global entry should survive keepGlobal flush")
	}
}

func TestHierarchyPrefetchFillsL2(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	// Stream sequentially through one page: after the trigger distance,
	// later lines must be L2 hits rather than memory misses.
	var lastCost int
	for line := uint64(0); line < 32; line++ {
		addr := line * 64
		lastCost = h.Data(0, addr, addr, false)
	}
	if lastCost > 4+12 {
		t.Fatalf("steady-state streamed access cost = %d, want an L2 hit (<= %d)", lastCost, 4+12)
	}
	if ahead := uint64(32 * 64); !h.L2For(0).Contains(ahead, ahead) {
		t.Fatal("the line after the streamed range was not prefetched into L2")
	}
}

func TestHierarchyBranchPaths(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	if p := h.Branch(0, 0x100, 0x200); p == 0 {
		t.Fatal("cold indirect branch should mispredict")
	}
	if p := h.Branch(0, 0x100, 0x200); p != 0 {
		t.Fatal("trained indirect branch should predict")
	}
	for i := 0; i < 32; i++ {
		h.CondBranch(0, 0x400, true)
	}
	if p := h.CondBranch(0, 0x400, true); p != 0 {
		t.Fatal("trained conditional branch should predict")
	}
}

func TestHierarchyPerCorePredictors(t *testing.T) {
	h := NewHierarchy(testHierCfg())
	h.Branch(0, 0x100, 0x200)
	if p := h.Branch(1, 0x100, 0x200); p == 0 {
		t.Fatal("core 1's BTB should be independent of core 0's")
	}
}
