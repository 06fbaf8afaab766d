package cache

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"timeprotection/internal/enc"
)

// scanPrefetcher drives a Prefetcher's stream table through the
// original linear scans: OnAccess and preArm find a page by walking the
// valid streams, and victimStream takes the lowest-indexed minimum
// stamp. It reads and writes only the encoded arrays, never the page
// index or the age list, so it is the reference those are held to.
type scanPrefetcher struct{ p *Prefetcher }

func (r scanPrefetcher) victimStream() int {
	p := r.p
	if inv := ^p.valid & (uint64(1)<<uint(len(p.pages)) - 1); inv != 0 {
		return 63 - bits.LeadingZeros64(inv)
	}
	victim := 0
	victimStamp := ^uint64(0)
	for i, s := range p.stamps {
		if s < victimStamp {
			victim, victimStamp = i, s
		}
	}
	return victim
}

func (r scanPrefetcher) setStream(i int, page, lastLine uint64, dir int8, count int32, confirmed bool) {
	p := r.p
	p.pages[i] = page
	p.lastLine[i] = lastLine
	p.stamps[i] = p.tick
	p.count[i] = count
	p.dir[i] = dir
	bit := uint64(1) << uint(i)
	p.valid |= bit
	if confirmed {
		p.confirmed |= bit
	} else {
		p.confirmed &^= bit
	}
}

func (r scanPrefetcher) preArm(page, lastLine uint64) {
	p := r.p
	for v := p.valid; v != 0; v &= v - 1 {
		if p.pages[bits.TrailingZeros64(v)] == page {
			return
		}
	}
	r.setStream(r.victimStream(), page, lastLine, 1, int32(p.cfg.Trigger)-1, true)
}

func (r scanPrefetcher) OnAccess(paddr uint64) []uint64 {
	p := r.p
	p.tick++
	lineAddr := paddr >> p.lineBits
	page := paddr >> 12
	s := -1
	if p.valid&(1<<uint(p.mru)) != 0 && p.pages[p.mru] == page {
		s = p.mru
	} else {
		for v := p.valid; v != 0; v &= v - 1 {
			i := bits.TrailingZeros64(v)
			if p.pages[i] == page {
				s = i
				p.mru = i
				break
			}
		}
	}
	if s < 0 {
		victim := r.victimStream()
		r.setStream(victim, page, lineAddr, 0, 1, false)
		p.mru = victim
		return nil
	}
	p.stamps[s] = p.tick
	var dir int8
	switch {
	case lineAddr == p.lastLine[s]+1:
		dir = 1
	case lineAddr == p.lastLine[s]-1:
		dir = -1
	default:
		p.lastLine[s] = lineAddr
		p.dir[s] = 0
		if p.confirmed&(1<<uint(s)) != 0 {
			p.count[s] = int32(p.cfg.Trigger) - 1
		} else {
			p.count[s] = 1
		}
		return nil
	}
	wasConfirmed := p.confirmed&(1<<uint(s)) != 0
	if p.dir[s] == dir {
		p.count[s]++
	} else {
		p.dir[s] = dir
		if wasConfirmed {
			p.count[s] = int32(p.cfg.Trigger)
		} else {
			p.count[s] = 2
		}
	}
	p.lastLine[s] = lineAddr
	if p.count[s] < int32(p.cfg.Trigger) {
		return nil
	}
	justConfirmed := !wasConfirmed || p.count[s] == int32(p.cfg.Trigger)
	p.confirmed |= 1 << uint(s)
	if !p.enabled {
		return nil
	}
	var out []uint64
	emit := func(off int64) {
		next := int64(lineAddr) + int64(dir)*off
		if next < 0 || uint64(next)<<p.lineBits>>12 != page {
			return
		}
		out = append(out, uint64(next)<<p.lineBits)
	}
	if justConfirmed {
		for i := int64(1); i <= int64(p.cfg.Degree); i++ {
			emit(i)
		}
	} else {
		emit(int64(p.cfg.Degree))
	}
	if dir == 1 && lineAddr&(p.pageLines-1) >= p.pageLines-uint64(p.cfg.Degree) {
		r.preArm(page+1, (page+1)*p.pageLines-1)
	}
	return out
}

func encodePrefetcher(p *Prefetcher) []byte {
	var w enc.Writer
	p.EncodeState(&w)
	return w.Bytes()
}

// roundTrip decodes p's encoding into a fresh prefetcher of its
// geometry, rebuilding the derived state from the bytes alone.
func roundTrip(t *testing.T, p *Prefetcher) *Prefetcher {
	t.Helper()
	q := NewPrefetcher(p.cfg)
	if err := q.DecodeState(enc.NewReader(encodePrefetcher(p))); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return q
}

// TestPrefetcherIndexDifferential runs random operation sequences
// through the indexed Prefetcher and the scan reference and requires
// equal prefetch lists and equal encodings after every operation. The
// page pool is small against the table, so streams are evicted
// constantly, and accesses mostly climb sequentially across page
// boundaries, so a hit's next-page preArm shares its tick and the age
// order must break the stamp tie by index.
func TestPrefetcherIndexDifferential(t *testing.T) {
	cfgs := []PrefetcherConfig{
		{Streams: 1, Degree: 4, Trigger: 2, LineSize: 64},
		{Streams: 8, Degree: 4, Trigger: 4, LineSize: 32}, // Sabre
		{Streams: 16, Degree: 8, Trigger: 4, LineSize: 64},
		{Streams: 64, Degree: 8, Trigger: 4, LineSize: 64}, // Haswell
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("streams%d/seed%d", cfg.Streams, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				got := NewPrefetcher(cfg)
				ref := scanPrefetcher{NewPrefetcher(cfg)}
				pool := uint64(cfg.Streams + cfg.Streams/2 + 2)
				pageLines := uint64(4096 / cfg.LineSize)
				line := uint64(0) // global line number of the cursor
				for op := 0; op < 20000; op++ {
					what := ""
					switch k := rng.Intn(1000); {
					case k < 2:
						what = "ResetHidden"
						got.ResetHidden()
						ref.p.ResetHidden()
					case k < 6:
						what = "Disable"
						got.Disable()
						ref.p.Disable()
					case k < 12:
						what = "Enable"
						got.Enable()
						ref.p.Enable()
					case k < 15:
						what = "round trip"
						got = roundTrip(t, got)
					default:
						switch j := rng.Intn(100); {
						case j < 70:
							line++
						case j < 80:
							line--
						default:
							line = 0x1000*pageLines + uint64(rng.Intn(int(pool*pageLines)))
						}
						if line < 0x1000*pageLines || line >= (0x1000+pool)*pageLines {
							line = 0x1000 * pageLines
						}
						paddr := line*uint64(cfg.LineSize) + uint64(rng.Intn(cfg.LineSize))
						what = fmt.Sprintf("OnAccess(%#x)", paddr)
						a, b := got.OnAccess(paddr), ref.OnAccess(paddr)
						if !slices.Equal(a, b) {
							t.Fatalf("op %d %s: prefetched %#x, reference %#x", op, what, a, b)
						}
					}
					if g, w := encodePrefetcher(got), encodePrefetcher(ref.p); !bytes.Equal(g, w) {
						t.Fatalf("op %d %s: encodings diverge", op, what)
					}
				}
			})
		}
	}
}
