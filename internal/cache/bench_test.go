package cache

import "testing"

// Micro-benchmarks for the per-access hot path the simulator spends
// most of its time in (every modelled load/store/fetch funnels into
// Cache.touch via Access/Fill). Tracked in BENCH_*.json.

func benchCache() *Cache {
	return New(Config{Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64, HitLatency: 12})
}

// BenchmarkCacheAccessHit measures the all-hits path: one resident
// line touched repeatedly.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := benchCache()
	c.Access(0x1000, 0x1000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, 0x1000, false)
	}
}

// BenchmarkCacheAccessMiss measures the steady-state miss path (hit
// scan, victim scan, install) by streaming conflicting lines through
// one set.
func BenchmarkCacheAccessMiss(b *testing.B) {
	c := benchCache()
	setSpan := uint64(c.cfg.Size / c.cfg.Ways) // stride that stays in set 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%64) * setSpan
		c.Access(addr, addr, false)
	}
}

// BenchmarkCacheAccessMaskedMiss is the miss path under a partition
// mask (the coloured-LLC configuration), exercising the masked victim
// scan.
func BenchmarkCacheAccessMaskedMiss(b *testing.B) {
	c := benchCache()
	setSpan := uint64(c.cfg.Size / c.cfg.Ways)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%64) * setSpan
		c.AccessMasked(addr, addr, false, 0x0F)
	}
}

// BenchmarkPrefetcherStream measures OnAccess on a sequential stream,
// the prefetcher's common case (MRU stream entry, steady-state emit).
func BenchmarkPrefetcherStream(b *testing.B) {
	p := NewPrefetcher(PrefetcherConfig{Streams: 16, Degree: 4, Trigger: 3, LineSize: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnAccess(uint64(i) * 64)
	}
}

// BenchmarkHierarchyAccessFast measures the batch stepping fast path
// for a resident line: the first-level TLB hit and the L1 hit committed
// in one pass, as the hw batch walk takes them. Must stay
// allocation-free — the probe loops ride it for nearly every access.
func BenchmarkHierarchyAccessFast(b *testing.B) {
	h := NewHierarchy(HierarchyConfig{
		Cores:        1,
		L1D:          Config{Name: "L1-D", Size: 32 << 10, Ways: 8, LineSize: 64, HitLatency: 4},
		L1I:          Config{Name: "L1-I", Size: 32 << 10, Ways: 8, LineSize: 64, HitLatency: 4},
		L2:           Config{Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64, HitLatency: 12},
		L2Private:    true,
		ITLB:         TLBConfig{Name: "ITLB", Entries: 64, Ways: 8},
		DTLB:         TLBConfig{Name: "DTLB", Entries: 64, Ways: 4},
		L2TLB:        TLBConfig{Name: "L2TLB", Entries: 1024, Ways: 8},
		BTB:          BTBConfig{Entries: 4096, Ways: 4, MispredictPenalty: 16},
		BHB:          BHBConfig{HistoryBits: 16, TableBits: 14, MispredictPenalty: 16},
		DataPrefetch: PrefetcherConfig{Streams: 64, Degree: 8, Trigger: 4, LineSize: 64},
		MemLatency:   200,
	})
	const vaddr, paddr = uint64(0x1000), uint64(0x1000)
	h.TLBInsert(0, vaddr>>12, 1, false, false)
	h.Data(0, vaddr, paddr, false) // make the line L1-resident
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ent := h.AccessFast(0, -1, vaddr>>12, 1, vaddr, paddr, false, false); ent < 0 {
			b.Fatal("fast path refused a resident translation")
		}
	}
}

// BenchmarkHierarchyL1Miss measures the L1-miss path the Splash-2
// analogues spend most of their time on: a sequential stream of loads
// with every fourth access a store, over a working set twice the size
// of the LLC on the 4-core Haswell hierarchy. Every access misses the
// L1, the stream prefetcher fills the L2 and L3 ahead of it, and the
// LLC's steady-state evictions back-invalidate every core's private
// caches — three of which stay empty. Must stay allocation-free.
func BenchmarkHierarchyL1Miss(b *testing.B) {
	h := NewHierarchy(HierarchyConfig{
		Cores:            4,
		L1D:              Config{Name: "L1-D", Size: 32 << 10, Ways: 8, LineSize: 64, HitLatency: 4, Virtual: true},
		L1I:              Config{Name: "L1-I", Size: 32 << 10, Ways: 8, LineSize: 64, HitLatency: 4, Virtual: true},
		L2:               Config{Name: "L2", Size: 256 << 10, Ways: 8, LineSize: 64, HitLatency: 12},
		L2Private:        true,
		L3:               Config{Name: "L3", Size: 8 << 20, Ways: 16, LineSize: 64, HitLatency: 42},
		ITLB:             TLBConfig{Name: "I-TLB", Entries: 64, Ways: 8},
		DTLB:             TLBConfig{Name: "D-TLB", Entries: 64, Ways: 4},
		L2TLB:            TLBConfig{Name: "L2-TLB", Entries: 1024, Ways: 8},
		BTB:              BTBConfig{Entries: 4096, Ways: 4, MispredictPenalty: 16},
		BHB:              BHBConfig{HistoryBits: 16, TableBits: 14, MispredictPenalty: 16},
		DataPrefetch:     PrefetcherConfig{Streams: 64, Degree: 8, Trigger: 4, LineSize: 64},
		MemLatency:       230,
		WritebackLatency: 8,
		L2TLBHitLatency:  8,
		MemJitter:        8,
	})
	const lines = 2 * (8 << 20) / 64
	addr := func(i int) uint64 { return uint64(i%lines) * 64 }
	for i := 0; i < lines; i++ { // fill the LLC so every later miss evicts
		h.Data(0, addr(i), addr(i), i%4 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Data(0, addr(i), addr(i), i%4 == 0)
	}
}
