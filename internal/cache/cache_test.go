package cache

import (
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Name: "t", Size: 4096, Ways: 4, LineSize: 64, HitLatency: 4}
}

func TestConfigSetsAndColours(t *testing.T) {
	cases := []struct {
		cfg     Config
		sets    int
		colours int
	}{
		{Config{Size: 32 * 1024, Ways: 8, LineSize: 64}, 64, 1},
		{Config{Size: 256 * 1024, Ways: 8, LineSize: 64}, 512, 8},
		{Config{Size: 8 * 1024 * 1024, Ways: 16, LineSize: 64}, 8192, 128},
		{Config{Size: 1024 * 1024, Ways: 16, LineSize: 32}, 2048, 16},
	}
	for _, c := range cases {
		if got := c.cfg.Sets(); got != c.sets {
			t.Errorf("Sets(%+v) = %d, want %d", c.cfg, got, c.sets)
		}
		if got := c.cfg.Colours(4096); got != c.colours {
			t.Errorf("Colours(%+v) = %d, want %d", c.cfg, got, c.colours)
		}
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two sets")
		}
	}()
	New(Config{Size: 3000, Ways: 3, LineSize: 64})
}

func TestAccessHitMiss(t *testing.T) {
	c := New(testConfig())
	hit, _ := c.Access(0x1000, 0x1000, false)
	if hit {
		t.Fatal("first access should miss")
	}
	hit, _ = c.Access(0x1000, 0x1000, false)
	if !hit {
		t.Fatal("second access should hit")
	}
	// Same line, different offset within the line.
	hit, _ = c.Access(0x1020, 0x1020, false)
	if !hit {
		t.Fatal("access within the same line should hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(testConfig()) // 16 sets, 4 ways
	sets := uint64(c.Sets())
	stride := sets * 64 // same set, different tags
	// Fill set 0 with 4 distinct lines.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*stride, i*stride, false)
	}
	// Touch line 0 to make line 1 the LRU victim.
	c.Access(0, 0, false)
	// A fifth line must evict line 1.
	c.Access(4*stride, 4*stride, false)
	if !c.Contains(0, 0) {
		t.Error("recently used line 0 evicted")
	}
	if c.Contains(stride, stride) {
		t.Error("LRU line 1 not evicted")
	}
	if !c.Contains(2*stride, 2*stride) || !c.Contains(3*stride, 3*stride) {
		t.Error("non-LRU lines evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(testConfig())
	sets := uint64(c.Sets())
	stride := sets * 64
	c.Access(0, 0, true) // dirty line
	if c.DirtyLines() != 1 {
		t.Fatalf("DirtyLines = %d, want 1", c.DirtyLines())
	}
	// Evict it by filling the set.
	writebacks := 0
	for i := uint64(1); i <= 4; i++ {
		_, ev := c.Access(i*stride, i*stride, false)
		if ev.Valid && ev.Dirty {
			writebacks++
			if ev.Tag != 0 {
				t.Errorf("evicted tag = %#x, want 0", ev.Tag)
			}
		}
	}
	if writebacks != 1 {
		t.Errorf("dirty evictions reported = %d, want 1", writebacks)
	}
}

func TestFlushCountsAndClears(t *testing.T) {
	c := New(testConfig())
	for i := uint64(0); i < 8; i++ {
		c.Access(i*64, i*64, i%2 == 0) // 4 dirty, 4 clean
	}
	valid, dirty := c.Flush()
	if valid != 8 || dirty != 4 {
		t.Fatalf("Flush = (%d, %d), want (8, 4)", valid, dirty)
	}
	if c.ValidLines() != 0 {
		t.Fatal("lines remain valid after flush")
	}
	if c.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
}

func TestVirtualIndexPhysicalTag(t *testing.T) {
	c := New(testConfig())
	// Two different virtual addresses mapping to the same physical line:
	// after accessing via v1, an access via v2 that indexes the same set
	// must hit (physical tag match).
	v1, v2, p := uint64(0x0040), uint64(0x0040), uint64(0x9040)
	c.Access(v1, p, false)
	if hit, _ := c.Access(v2, p, false); !hit {
		t.Error("same physical line via same index should hit")
	}
	// A different physical tag at the same index must miss.
	if hit, _ := c.Access(v1, 0xA040, false); hit {
		t.Error("different physical tag should miss")
	}
}

func TestSetOfUsesLineBits(t *testing.T) {
	c := New(testConfig()) // 16 sets, 64 B lines
	if c.SetOf(0) != 0 {
		t.Error("addr 0 should map to set 0")
	}
	if c.SetOf(64) != 1 {
		t.Error("addr 64 should map to set 1")
	}
	if c.SetOf(16*64) != 0 {
		t.Error("set index should wrap")
	}
	if c.SetOf(63) != 0 {
		t.Error("offset bits must not affect the set")
	}
}

func TestFlushMatching(t *testing.T) {
	c := New(testConfig())
	c.Access(0x0000, 0x0000, true)
	c.Access(0x9040, 0x9040, false)
	valid, dirty := c.FlushMatching(func(tag uint64) bool { return tag < 0x1000 })
	if valid != 1 || dirty != 1 {
		t.Fatalf("FlushMatching = (%d,%d), want (1,1)", valid, dirty)
	}
	if c.Contains(0, 0) {
		t.Error("matching line survived")
	}
	if !c.Contains(0x9040, 0x9040) {
		t.Error("non-matching line flushed")
	}
}

// Property: occupancy never exceeds capacity and Contains is consistent
// with the most recent accesses within a set's associativity window.
func TestPropertyOccupancyBounded(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(testConfig())
		for _, a := range addrs {
			c.Access(uint64(a), uint64(a), a%3 == 0)
		}
		if c.ValidLines() > c.Sets()*c.Ways() {
			return false
		}
		for s := 0; s < c.Sets(); s++ {
			if c.SetOccupancy(s) > c.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a just-accessed line is always resident.
func TestPropertyAccessedLineResident(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(testConfig())
		for _, a := range addrs {
			addr := uint64(a)
			c.Access(addr, addr, false)
			if !c.Contains(addr, addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCacheContentionBetweenAddressRanges(t *testing.T) {
	// The fundamental channel mechanism: a second program's working set
	// evicts the first program's lines from shared sets.
	c := New(Config{Size: 32 * 1024, Ways: 8, LineSize: 64, HitLatency: 4})
	size := uint64(32 * 1024)
	// Program A fills the cache.
	for a := uint64(0); a < size; a += 64 {
		c.Access(a, a, false)
	}
	// All resident.
	for a := uint64(0); a < size; a += 64 {
		if !c.Contains(a, a) {
			t.Fatalf("line %#x not resident after fill", a)
		}
	}
	// Program B touches half the cache from a disjoint range.
	for a := uint64(0); a < size/2; a += 64 {
		c.Access(0x100000+a, 0x100000+a, false)
	}
	evicted := 0
	for a := uint64(0); a < size; a += 64 {
		if !c.Contains(a, a) {
			evicted++
		}
	}
	if evicted != int(size/2)/64 {
		t.Errorf("evicted = %d lines, want %d", evicted, int(size/2)/64)
	}
}
