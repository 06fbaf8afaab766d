package trace

import "math"

// This file contains replay analyses over event streams — the
// primitives trace-driven tests assert on. They treat the stream as
// ground truth about what the simulated hardware did, so properties the
// MI toolchain can only infer statistically ("colouring keeps domains
// apart", "a full flush leaves nothing to hit") become exact counts.

// CrossDomainHit describes one cache hit by a domain on a line whose
// previous toucher was a different domain — the structural signature of
// shared microarchitectural state, and exactly what time protection's
// flush/partition mechanisms are meant to eliminate.
type CrossDomainHit struct {
	Event      Event
	PrevDomain int16
}

// CrossDomainHits replays cache events and returns every hit on a line
// last touched by a different domain. Lines are keyed per unit and per
// core for core-private levels; pass sharedUnits for the levels all
// cores share (the LLC) so cross-core traffic is tracked against one
// line table. A CacheFlush event clears the unit's table (flushed lines
// cannot be hit, so any later hit re-derives from a post-flush touch).
// Events whose address fails the filter (when non-nil) still update the
// line tables but are not reported — use the filter to scope the
// verdict to user memory while kernel-shared lines keep their true
// toucher history.
func CrossDomainHits(events []Event, sharedUnits map[Unit]bool, filter func(addr uint64) bool) []CrossDomainHit {
	type lineKey struct {
		unit Unit
		core uint8
		addr uint64
	}
	last := make(map[lineKey]int16)
	var out []CrossDomainHit
	key := func(e Event) lineKey {
		k := lineKey{unit: e.Unit, addr: e.Addr}
		if !sharedUnits[e.Unit] {
			k.core = e.Core
		}
		return k
	}
	for _, e := range events {
		switch e.Kind {
		case CacheHit:
			k := key(e)
			if prev, ok := last[k]; ok && prev != e.Domain {
				if filter == nil || filter(e.Addr) {
					out = append(out, CrossDomainHit{Event: e, PrevDomain: prev})
				}
			}
			last[k] = e.Domain
		case CacheMiss, CacheWriteback, PrefetchIssue:
			// All three install the line: a miss fills it on demand, a
			// write-back installs it one level down, a prefetch pulls it
			// in speculatively. Each makes the line hittable by whoever
			// runs next, so each counts as a touch.
			last[key(e)] = e.Domain
		case CacheEvict:
			delete(last, key(e))
		case CacheFlush:
			for k := range last { // order-free: only deletes entries
				if k.unit == e.Unit && (sharedUnits[e.Unit] || k.core == e.Core) {
					delete(last, k)
				}
			}
		}
	}
	return out
}

// TouchedSets returns the set indices touched by cache events of one
// unit, restricted to events matching the domain and the address filter
// (nil = all). setOf maps a physical line address to its set index —
// pass the cache's SetOf.
func TouchedSets(events []Event, unit Unit, domain int, filter func(addr uint64) bool, setOf func(addr uint64) int) map[int]bool {
	sets := make(map[int]bool)
	for _, e := range events {
		if e.Unit != unit || int(e.Domain) != domain {
			continue
		}
		switch e.Kind {
		case CacheHit, CacheMiss, CacheEvict:
			if filter == nil || filter(e.Addr) {
				sets[setOf(e.Addr)] = true
			}
		}
	}
	return sets
}

// SampleWindow is one channel measurement window cut from the stream:
// the events between a ChannelSampleBegin/End pair, with the sender
// symbol under measurement and the receiver's measured value.
type SampleWindow struct {
	Symbol int
	Value  float64
	Events []Event
}

// SampleWindows slices the stream into channel measurement windows.
// Nested windows do not occur (one receiver measures at a time); an
// unterminated trailing window is dropped.
func SampleWindows(events []Event) []SampleWindow {
	var out []SampleWindow
	var cur *SampleWindow
	for _, e := range events {
		switch e.Kind {
		case ChannelSampleBegin:
			cur = &SampleWindow{Symbol: int(e.Addr)}
		case ChannelSampleEnd:
			if cur != nil {
				cur.Value = math.Float64frombits(e.Arg)
				out = append(out, *cur)
				cur = nil
			}
		default:
			if cur != nil {
				cur.Events = append(cur.Events, e)
			}
		}
	}
	return out
}

// MissCount counts CacheMiss events of one unit within a window that
// pass the address filter (nil = all).
func (w SampleWindow) MissCount(unit Unit, filter func(addr uint64) bool) int {
	n := 0
	for _, e := range w.Events {
		if e.Kind == CacheMiss && e.Unit == unit && (filter == nil || filter(e.Addr)) {
			n++
		}
	}
	return n
}

// SymbolMeans groups per-window values by sender symbol and returns the
// mean of vals for each symbol present (map symbol → mean).
func SymbolMeans(windows []SampleWindow, val func(SampleWindow) float64) map[int]float64 {
	sum := make(map[int]float64)
	n := make(map[int]int)
	for _, w := range windows {
		sum[w.Symbol] += val(w)
		n[w.Symbol]++
	}
	out := make(map[int]float64, len(sum))
	for s, t := range sum { // order-free: fills another map
		out[s] = t / float64(n[s])
	}
	return out
}

// PhaseSpans pairs begin/end phase events per core and returns the
// cycle duration of each completed span of the given begin kind, in
// stream order. Used to assert padded domain-switch durations are
// constant.
func PhaseSpans(events []Event, begin Kind) []uint64 {
	end, ok := spanPartner[begin]
	if !ok {
		return nil
	}
	open := map[uint8]uint64{}
	var out []uint64
	for _, e := range events {
		switch e.Kind {
		case begin:
			open[e.Core] = e.Time
		case end:
			if t0, ok := open[e.Core]; ok {
				out = append(out, e.Time-t0)
				delete(open, e.Core)
			}
		}
	}
	return out
}
