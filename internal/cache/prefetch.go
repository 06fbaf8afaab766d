package cache

import (
	"fmt"
	"math/bits"
)

// PrefetcherConfig describes a hardware stream prefetcher.
type PrefetcherConfig struct {
	Streams  int // number of tracked streams (one per 4 KiB page)
	Degree   int // prefetch distance in lines once a stream is confirmed
	Trigger  int // sequential accesses needed to confirm a fresh stream
	LineSize int
}

// Prefetcher models an aggressive data stream prefetcher. Its stream
// table is *not* architected state: no flush instruction resets it, and
// it survives domain switches. A stream that was confirmed re-arms after
// one access when its page is touched again, while a fresh (or evicted)
// stream needs Trigger sequential accesses — so the time a program takes
// to stream over its pages depends on how much of its prefetcher state
// the previously running domain displaced. This hidden state is the
// model of the residual x86 L2 channel of the paper (Table 3, protected
// scenario), closable only by disabling the unit via MSR 0x1A4.
//
// The stream table is held as parallel flat arrays plus valid/confirmed
// bitmasks (hence the 64-stream ceiling), which the snapshot layer
// freezes wholesale. Two derived structures sit beside it, rebuilt by
// DecodeState and never encoded: an open-addressed page index over the
// valid streams (their pages are unique), which answers OnAccess's and
// preArm's page lookups without a scan, and an age list of the valid
// streams in (stamp, index) order, whose head is the LRU victim.
type Prefetcher struct {
	cfg       PrefetcherConfig
	enabled   bool
	pages     []uint64
	lastLine  []uint64 // global line number (paddr >> lineBits)
	stamps    []uint64
	count     []int32
	dir       []int8 // +1, -1 or 0
	valid     uint64 // bitmask over streams
	confirmed uint64 // the stream reached Trigger at least once
	tick      uint64
	lineBits  uint
	pageLines uint64   // lines per 4 KiB page (a power of two)
	mru       int      // stream index of the last hit: a streaming access
	out       []uint64 // reusable OnAccess result buffer

	// slot is the page index: linear probing from pageHash, each slot
	// holding a valid stream's index plus one (zero = empty).
	slot [indexSlots]uint8
	// older and newer link the valid streams from oldest (the LRU
	// victim) to newest in ascending (stamp, index) order; -1 ends the
	// list.
	older, newer   [64]int8
	oldest, newest int8
}

// indexSlots is the page index size: a power of two at least twice the
// 64-stream ceiling, so a probe sequence stays short.
const (
	indexBits  = 7
	indexSlots = 1 << indexBits
)

// pageHash is the page index's home slot for page (Fibonacci hashing).
func pageHash(page uint64) int {
	return int((page * 0x9E3779B97F4A7C15) >> (64 - indexBits))
}

// NewPrefetcher builds an enabled prefetcher. It panics above 64
// streams, which would not fit the valid/confirmed bitmasks.
func NewPrefetcher(cfg PrefetcherConfig) *Prefetcher {
	if cfg.Streams > 64 {
		panic(fmt.Sprintf("prefetcher: %d streams exceed the 64-stream table", cfg.Streams))
	}
	p := &Prefetcher{
		cfg:      cfg,
		enabled:  true,
		pages:    make([]uint64, cfg.Streams),
		lastLine: make([]uint64, cfg.Streams),
		stamps:   make([]uint64, cfg.Streams),
		count:    make([]int32, cfg.Streams),
		dir:      make([]int8, cfg.Streams),
		oldest:   -1,
		newest:   -1,
	}
	for cfg.LineSize>>p.lineBits > 1 {
		p.lineBits++
	}
	p.pageLines = uint64(4096) >> p.lineBits
	return p
}

// Enabled reports whether the prefetcher is active.
func (p *Prefetcher) Enabled() bool { return p.enabled }

// Disable turns the prefetcher off (MSR 0x1A4 analogue). The stream
// table is preserved, matching hardware: disabling stops new prefetches
// but does not erase history.
func (p *Prefetcher) Disable() { p.enabled = false }

// Enable turns the prefetcher back on.
func (p *Prefetcher) Enable() { p.enabled = true }

// victimStream picks the entry a new stream displaces: the
// highest-indexed invalid entry if any, else the least recently used,
// the lowest-indexed on a stamp tie — the head of the age list.
// (Highest invalid, not lowest: the previous struct-table scan let every
// later invalid entry overwrite the candidate, and the choice is
// observable through which streams survive, so it is preserved.)
func (p *Prefetcher) victimStream() int {
	if inv := ^p.valid & (uint64(1)<<uint(len(p.pages)) - 1); inv != 0 {
		return 63 - bits.LeadingZeros64(inv)
	}
	return int(p.oldest)
}

// setStream overwrites entry i with a fresh stream.
func (p *Prefetcher) setStream(i int, page, lastLine uint64, dir int8, count int32, confirmed bool) {
	bit := uint64(1) << uint(i)
	if p.valid&bit != 0 {
		p.unindex(i)
		p.unlink(i)
	}
	p.pages[i] = page
	p.lastLine[i] = lastLine
	p.stamps[i] = p.tick
	p.count[i] = count
	p.dir[i] = dir
	p.valid |= bit
	if confirmed {
		p.confirmed |= bit
	} else {
		p.confirmed &^= bit
	}
	p.index(i)
	p.link(i)
}

// find returns the valid stream tracking page, or -1.
func (p *Prefetcher) find(page uint64) int {
	for h := pageHash(page); ; h = (h + 1) & (indexSlots - 1) {
		s := int(p.slot[h]) - 1
		if s < 0 || p.pages[s] == page {
			return s
		}
	}
}

// index adds valid stream i to the page index.
func (p *Prefetcher) index(i int) {
	h := pageHash(p.pages[i])
	for p.slot[h] != 0 {
		h = (h + 1) & (indexSlots - 1)
	}
	p.slot[h] = uint8(i + 1)
}

// unindex removes stream i from the page index, shifting later members
// of its probe run back so that no lookup stops short of its entry.
func (p *Prefetcher) unindex(i int) {
	h := pageHash(p.pages[i])
	for int(p.slot[h]) != i+1 {
		h = (h + 1) & (indexSlots - 1)
	}
	for j := h; ; {
		p.slot[h] = 0
		for {
			j = (j + 1) & (indexSlots - 1)
			s := p.slot[j]
			if s == 0 {
				return
			}
			// The entry at j may fill the hole at h unless its home
			// lies cyclically within (h, j].
			if home := pageHash(p.pages[s-1]); (j-home)&(indexSlots-1) >= (j-h)&(indexSlots-1) {
				p.slot[h] = s
				h = j
				break
			}
		}
	}
}

// link inserts valid stream i into the age list at its (stamp, index)
// place. Stamps come from the advancing tick, so the walk from the
// newest end stops at once or, on the tick a hit and its preArm share,
// after one step.
func (p *Prefetcher) link(i int) {
	at := p.newest
	for at >= 0 && (p.stamps[at] > p.stamps[i] || p.stamps[at] == p.stamps[i] && int(at) > i) {
		at = p.older[at]
	}
	p.older[i] = at
	if at >= 0 {
		p.newer[i] = p.newer[at]
		p.newer[at] = int8(i)
	} else {
		p.newer[i] = p.oldest
		p.oldest = int8(i)
	}
	if n := p.newer[i]; n >= 0 {
		p.older[n] = int8(i)
	} else {
		p.newest = int8(i)
	}
}

// unlink removes stream i from the age list.
func (p *Prefetcher) unlink(i int) {
	o, n := p.older[i], p.newer[i]
	if o >= 0 {
		p.newer[o] = n
	} else {
		p.oldest = n
	}
	if n >= 0 {
		p.older[n] = o
	} else {
		p.newest = o
	}
}

// rebuild re-derives the page index and the age list from the stream
// table, failing if two valid streams track one page.
func (p *Prefetcher) rebuild() error {
	p.slot = [indexSlots]uint8{}
	p.oldest, p.newest = -1, -1
	for v := p.valid; v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		if j := p.find(p.pages[i]); j >= 0 {
			return fmt.Errorf("cache: prefetcher streams %d and %d both track page %#x", j, i, p.pages[i])
		}
		p.index(i)
		p.link(i)
	}
	return nil
}

// OnAccess observes a demand access that missed the L1 (the level the
// stream detector snoops) at physical address paddr, and returns the
// physical line addresses to prefetch. The caller installs them into
// the L2 (and L3). The returned slice is reused and only valid until
// the next OnAccess call.
func (p *Prefetcher) OnAccess(paddr uint64) []uint64 {
	p.tick++
	lineAddr := paddr >> p.lineBits
	page := paddr >> 12
	var s int
	// Streaming workloads hit the same entry on consecutive misses, so
	// check the most recently hit stream before the page index.
	if p.valid&(1<<uint(p.mru)) != 0 && p.pages[p.mru] == page {
		s = p.mru
	} else if s = p.find(page); s >= 0 {
		p.mru = s
	} else {
		victim := p.victimStream()
		p.setStream(victim, page, lineAddr, 0, 1, false)
		p.mru = victim
		return nil
	}
	p.stamps[s] = p.tick
	// No stamp exceeds the tick (DecodeState enforces it), so the
	// newest stream stays newest.
	if int(p.newest) != s {
		p.unlink(s)
		p.link(s)
	}
	var dir int8
	switch {
	case lineAddr == p.lastLine[s]+1:
		dir = 1
	case lineAddr == p.lastLine[s]-1:
		dir = -1
	default:
		// Sequence broken (e.g. the page is being re-streamed from its
		// start). A previously confirmed stream re-arms almost instantly;
		// an unconfirmed one starts training from scratch.
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
	out := p.out[:0]
	emit := func(off int64) {
		next := int64(lineAddr) + int64(dir)*off
		if next < 0 {
			return
		}
		if uint64(next)<<p.lineBits>>12 != page {
			return
		}
		out = append(out, uint64(next)<<p.lineBits)
	}
	if justConfirmed {
		// Burst: cover the whole prefetch window.
		for i := int64(1); i <= int64(p.cfg.Degree); i++ {
			emit(i)
		}
	} else {
		// Steady state: keep the window Degree lines ahead.
		emit(int64(p.cfg.Degree))
	}
	p.out = out
	// Next-page prefetch: a confirmed ascending stream nearing its page
	// boundary pre-arms the following page's entry, so a long sequential
	// sweep pays one training miss per page instead of Trigger (the
	// behaviour of Intel's next-page prefetcher).
	if dir == 1 && lineAddr&(p.pageLines-1) >= p.pageLines-uint64(p.cfg.Degree) {
		p.preArm(page+1, (page+1)*p.pageLines-1)
	}
	return out
}

// preArm installs a confirmed, nearly-triggered stream entry for page
// (unless one already exists), anticipating a sequential crossing.
func (p *Prefetcher) preArm(page, lastLine uint64) {
	if p.find(page) >= 0 {
		return
	}
	p.setStream(p.victimStream(), page, lastLine, 1, int32(p.cfg.Trigger)-1, true)
}

// ActiveStreams returns the number of valid stream-table entries. The
// residual channel exists because this count (and the entries' contents)
// survive every architected flush.
func (p *Prefetcher) ActiveStreams() int {
	return bits.OnesCount64(p.valid)
}

// ConfirmedStreams returns the number of confirmed streams (tests).
func (p *Prefetcher) ConfirmedStreams() int {
	return bits.OnesCount64(p.valid & p.confirmed)
}

// ResetHidden erases the stream table. No architected operation maps to
// this; it exists so tests and ablations can model the "better
// hardware-software contract" the paper argues for.
func (p *Prefetcher) ResetHidden() {
	for i := range p.pages {
		p.pages[i] = 0
		p.lastLine[i] = 0
		p.stamps[i] = 0
		p.count[i] = 0
		p.dir[i] = 0
	}
	p.valid = 0
	p.confirmed = 0
	p.slot = [indexSlots]uint8{}
	p.oldest, p.newest = -1, -1
}
