package cache

import (
	"testing"

	"timeprotection/internal/enc"
)

// sabrePF is the Sabre data prefetcher's geometry: 8 streams.
var sabrePF = PrefetcherConfig{Streams: 8, Degree: 4, Trigger: 4, LineSize: 32}

// pfBlob hand-builds a prefetcher encoding for an n-stream table. The
// slices cover the first streams; the rest stay zero.
func pfBlob(n int, valid, confirmed, tick uint64, pages, stamps []uint64) []byte {
	var w enc.Writer
	w.Bool(true)
	w.U64(valid)
	w.U64(confirmed)
	w.U64(tick)
	w.Int(0)
	full := func(vs []uint64) []uint64 {
		out := make([]uint64, n)
		copy(out, vs)
		return out
	}
	w.U64s(full(pages))
	w.U64s(full(nil)) // lastLine
	w.U64s(full(stamps))
	for i := 0; i < 2*n; i++ { // count, dir
		w.I64(0)
	}
	return w.Bytes()
}

// tinyL1 is an 8-way cache of 8 sets: 64 tags, so valid bits beyond the
// way mask on the last set index past the tag array.
var tinyL1 = Config{Name: "L1-D", Size: 4096, Ways: 8, LineSize: 64, HitLatency: 4}

// cacheBlob hand-builds a cache encoding whose last set carries the
// given LRU stack and masks (one tag per valid bit); every other set is
// pristine, so the encoding skips it.
func cacheBlob(cfg Config, lru, valid, dirty uint64) []byte {
	var w enc.Writer
	w.U64(0) // pinMask
	prev := -1
	w.Index(&prev, cfg.Sets()-1)
	w.U64(lru ^ lruInit(cfg.Ways))
	w.U64(valid)
	w.U64(dirty)
	for v := valid; v != 0; v &= v - 1 {
		w.U64(0x40000 >> 6) // the line of tag 0x40000
	}
	w.Index(&prev, cfg.Sets())
	return w.Bytes()
}

// rawBlob hand-builds an encoding from raw varints, for the framing
// cases the typed blob helpers cannot spell.
func rawBlob(vs ...uint64) []byte {
	var w enc.Writer
	for _, v := range vs {
		w.U64(v)
	}
	return w.Bytes()
}

// decodeSafely runs decode, turning a panic into a test failure for
// the named case.
func decodeSafely(t *testing.T, name string, decode func() error) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: decode panicked: %v", name, p)
		}
	}()
	return decode()
}

// TestDecodeRejectsCorruptState feeds hand-built corrupt blobs to the
// prefetcher and cache decoders: each must return an error, not panic
// and not leave a unit whose derived state indexes out of range. The
// well-formed rows check that the blob builders themselves are sound.
func TestDecodeRejectsCorruptState(t *testing.T) {
	lru8 := lruInit(8)
	cases := []struct {
		name   string
		decode func() error
		ok     bool
	}{
		{"prefetcher well-formed", func() error {
			return NewPrefetcher(sabrePF).DecodeState(enc.NewReader(pfBlob(8, 0b11, 0b01, 2, []uint64{5, 6}, []uint64{1, 2})))
		}, true},
		{"prefetcher valid bit beyond streams", func() error {
			return NewPrefetcher(sabrePF).DecodeState(enc.NewReader(pfBlob(8, 1<<9, 0, 1, nil, nil)))
		}, false},
		{"prefetcher confirmed bit beyond streams", func() error {
			return NewPrefetcher(sabrePF).DecodeState(enc.NewReader(pfBlob(8, 1, 1<<8, 1, []uint64{5}, nil)))
		}, false},
		{"prefetcher two streams on one page", func() error {
			return NewPrefetcher(sabrePF).DecodeState(enc.NewReader(pfBlob(8, 0b101, 0, 2, []uint64{5, 0, 5}, nil)))
		}, false},
		{"prefetcher stream stamped after the clock", func() error {
			return NewPrefetcher(sabrePF).DecodeState(enc.NewReader(pfBlob(8, 1, 0, 3, []uint64{5}, []uint64{10})))
		}, false},
		{"cache well-formed", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, lru8, 0b11, 0b01)))
		}, true},
		{"cache valid bits 8-15 of an 8-way set", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, lru8, 0xFF00, 0)))
		}, false},
		{"cache valid bit beyond 16 ways", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, lru8, 1<<20, 0)))
		}, false},
		{"cache dirty bit outside the ways", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, lru8, 0xFF, 1<<9)))
		}, false},
		{"cache dirty line not valid", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, lru8, 0b01, 0b10)))
		}, false},
		{"cache LRU stack repeats a way", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, 0xFFFFFFFF76543200, 0, 0)))
		}, false},
		{"cache LRU stack names a way the set lacks", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, 0xFFFFFFFF86543210, 0, 0)))
		}, false},
		{"cache LRU stack without fillers", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, 0x0000000076543210, 0, 0)))
		}, false},
		{"cache set with only its LRU stack moved", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, 0xFFFFFFFF76543201, 0, 0)))
		}, true},
		{"cache explicit pristine set", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(cacheBlob(tinyL1, lru8, 0, 0)))
		}, false},
		{"cache set index repeated", func() error {
			// pin 0; set 0 (distance 1) holding way 0; set 0 again (distance 0)
			return New(tinyL1).DecodeState(enc.NewReader(rawBlob(0, 1, 0, 1, 0, 0x1000, 0, 0, 1, 0, 0x1000, 8)))
		}, false},
		{"cache set index beyond the sets", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(rawBlob(0, 10)))
		}, false},
		{"cache list never closed", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(rawBlob(0, 1, 0, 1, 0, 0x1000)))
		}, false},
		{"cache line beyond a tag", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(rawBlob(0, 1, 0, 1, 0, 1<<60, 8)))
		}, false},
		{"cache pinned way beyond the ways", func() error {
			return New(tinyL1).DecodeState(enc.NewReader(rawBlob(1<<8, 9)))
		}, false},
	}
	for _, tc := range cases {
		err := decodeSafely(t, tc.name, tc.decode)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: decoded without an error", tc.name)
		}
	}
}

// TestDecodedPrefetcherIsUsable drives a decoded prefetcher: the page
// index and age list rebuilt from the blob must find its streams and
// pick its victims without a scan.
func TestDecodedPrefetcherIsUsable(t *testing.T) {
	p := NewPrefetcher(sabrePF)
	pages := []uint64{10, 11, 12, 13, 14, 15, 16, 17}
	stamps := []uint64{8, 7, 6, 5, 4, 3, 2, 1}
	if err := p.DecodeState(enc.NewReader(pfBlob(8, 0xFF, 0, 8, pages, stamps))); err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages {
		if s := p.find(pg); s != i {
			t.Fatalf("find(page %d) = %d, want %d", pg, s, i)
		}
	}
	if v := p.victimStream(); v != 7 {
		t.Fatalf("victim = %d, want 7 (oldest stamp)", v)
	}
	p.OnAccess(99 << 12) // a new page displaces stream 7
	if s := p.find(17); s >= 0 {
		t.Fatalf("evicted page still indexed at stream %d", s)
	}
	if s := p.find(99); s != 7 {
		t.Fatalf("find(99) = %d, want 7", s)
	}
}
