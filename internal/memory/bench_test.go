package memory

import "testing"

// BenchmarkAddressSpaceTranslate measures a page-table walk that misses
// the one-entry walk memo on every call: the page changes within one
// second-level table, or the table changes too. Must stay
// allocation-free.
func BenchmarkAddressSpaceTranslate(b *testing.B) {
	const tables, pages = 4, 64
	pool := NewPool(NewFrameAllocator(0, 1024, 8), nil)
	as, err := NewAddressSpace(1, pool)
	if err != nil {
		b.Fatal(err)
	}
	frames, err := pool.AllocN(tables * pages)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < tables; t++ {
		if err := as.MapRange(uint64(t)*l2TableSpan*PageSize, frames[t*pages:(t+1)*pages], false); err != nil {
			b.Fatal(err)
		}
	}
	walk := func(b *testing.B, vpn func(i int) uint64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := as.Translate(vpn(i) << PageBits); !ok {
				b.Fatal("mapped page did not translate")
			}
		}
	}
	b.Run("within", func(b *testing.B) {
		walk(b, func(i int) uint64 { return uint64(i % pages) })
	})
	b.Run("across", func(b *testing.B) {
		walk(b, func(i int) uint64 { return uint64(i%tables)*l2TableSpan + uint64(i/tables%pages) })
	})
}
