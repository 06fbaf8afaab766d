package cache

// Snapshot codec: EncodeState/DecodeState freeze and restore the mutable
// microarchitectural state of every unit, so a fully booted machine can
// be forked instead of re-booted (internal/snapshot). Configurations are
// NOT encoded — the decoder runs against a freshly constructed object of
// identical geometry — so the blobs stay small and a geometry change
// shows up as a decode error rather than silent corruption.
//
// The encodings are canonical and sparse: two units produce equal bytes
// if and only if they are in identical simulated state, and a unit
// writes only what differs from a freshly built one (the index lists of
// internal/enc). A cache writes its non-pristine sets, a TLB or BTB its
// valid entries, a BHB the counters off their reset value; everything
// the encoding skips decodes as pristine, whatever the target held
// before. A freshly booted machine's mostly-empty arrays thus cost a
// few bytes per unit instead of a few per set. The decoders reject
// every second spelling — an explicit pristine set, a counter at its
// reset value — and every value the unit cannot hold.

import (
	"fmt"
	"math/bits"

	"timeprotection/internal/enc"
)

// EncodeState appends the cache's mutable state to w: the pinned ways,
// then each set that differs from a fresh one as (index, LRU stack XOR
// the fresh stack, valid mask, dirty mask, the valid ways' tags as line
// numbers). A set is pristine when it holds no line and its stack is
// the fresh one; its tags are then all invalidTag and its dirty mask
// empty, so nothing of it needs writing.
func (c *Cache) EncodeState(w *enc.Writer) {
	w.U64(c.pinMask)
	ways := c.cfg.Ways
	stack := lruInit(ways)
	prev := -1
	for set := range c.meta {
		m := &c.meta[set]
		if m.valid == 0 && m.lru == stack {
			continue
		}
		w.Index(&prev, set)
		w.U64(m.lru ^ stack)
		w.U64(uint64(m.valid))
		w.U64(uint64(m.dirty))
		base := set * ways
		for v := m.valid; v != 0; v &= v - 1 {
			w.U64(c.tags[base+bits.TrailingZeros16(v)] >> c.lineBits)
		}
	}
	w.Index(&prev, len(c.meta))
}

// DecodeState restores state encoded by EncodeState into a cache of the
// same geometry, first returning every set to pristine so the sets the
// encoding skips decode as pristine. The running valid-line count is
// derived from the decoded valid masks, never encoded. It rejects
// pinned ways the cache lacks; an explicit pristine set; masks naming
// ways the cache lacks, or dirty lines that are not valid; an LRU stack
// that is not a permutation of the ways (the masks index the tag array,
// and the stack names the victim); and a line number no tag can hold.
func (c *Cache) DecodeState(r *enc.Reader) error {
	pin := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if pin&^c.fullMask != 0 {
		return fmt.Errorf("cache %s: pinned ways %#x outside %d ways", c.cfg.Name, pin, c.cfg.Ways)
	}
	c.Flush()
	c.pinMask = pin
	ways := c.cfg.Ways
	stack := lruInit(ways)
	maxLine := invalidTag >> c.lineBits
	for set := r.Index(-1, len(c.meta)); set < len(c.meta); set = r.Index(set, len(c.meta)) {
		lru, valid, dirty := r.U64()^stack, r.U64(), r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		switch {
		case valid == 0 && lru == stack:
			return fmt.Errorf("cache %s: set %d is written but pristine", c.cfg.Name, set)
		case (valid|dirty)&^c.fullMask != 0 || dirty&^valid != 0:
			return fmt.Errorf("cache %s: set %d valid/dirty masks %#x/%#x outside %d ways", c.cfg.Name, set, valid, dirty, ways)
		case lru != stack && !lruPermutes(lru, ways):
			return fmt.Errorf("cache %s: set %d LRU stack %#x is not a permutation of %d ways", c.cfg.Name, set, lru, ways)
		}
		m := &c.meta[set]
		m.lru, m.valid, m.dirty = lru, uint16(valid), uint16(dirty)
		base := set * ways
		for v := m.valid; v != 0; v &= v - 1 {
			line := r.U64()
			if line > maxLine || line<<c.lineBits == invalidTag {
				return fmt.Errorf("cache %s: set %d line %#x beyond a tag", c.cfg.Name, set, line)
			}
			c.tags[base+bits.TrailingZeros16(v)] = line << c.lineBits
		}
		c.nvalid += bits.OnesCount16(m.valid)
	}
	return r.Err()
}

// lruPermutes reports whether lru holds each of the ways way indices
// once in its low nibbles, with the 0xF fillers of lruInit above them.
func lruPermutes(lru uint64, ways int) bool {
	if ways < 16 {
		if high := ^uint64(0) << (4 * uint(ways)); lru&high != high {
			return false
		}
	}
	var seen uint16
	for p := 0; p < ways; p++ {
		w := lru >> (4 * uint(p)) & 0xF
		if int(w) >= ways || seen&(1<<w) != 0 {
			return false
		}
		seen |= 1 << w
	}
	return true
}

// EncodeState appends the TLB's mutable state to w: the LRU clock, then
// each valid entry by index.
func (t *TLB) EncodeState(w *enc.Writer) {
	w.U64(t.tick)
	prev := -1
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid {
			w.Index(&prev, i)
			w.U64(e.vpn)
			w.U64(uint64(e.asid))
			w.U64(e.stamp)
			w.Bool(e.global)
		}
	}
	w.Index(&prev, len(t.entries))
}

// DecodeState restores TLB state into a TLB of the same geometry; the
// entries the encoding skips decode invalid. It rejects an ASID beyond
// 16 bits and an entry stamped after the clock.
func (t *TLB) DecodeState(r *enc.Reader) error {
	t.tick = r.U64()
	clear(t.entries)
	n := len(t.entries)
	for i := r.Index(-1, n); i < n; i = r.Index(i, n) {
		vpn, asid, stamp, global := r.U64(), r.U64(), r.U64(), r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		if asid > 0xFFFF || stamp > t.tick {
			return fmt.Errorf("tlb %s: entry %d ASID %d stamp %d (clock %d) out of range", t.cfg.Name, i, asid, stamp, t.tick)
		}
		t.entries[i] = tlbEntry{vpn: vpn, asid: uint16(asid), stamp: stamp, valid: true, global: global}
	}
	return r.Err()
}

// EncodeState appends the BTB's mutable state to w: the LRU clock, then
// each valid entry by index.
func (b *BTB) EncodeState(w *enc.Writer) {
	w.U64(b.tick)
	prev := -1
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid {
			w.Index(&prev, i)
			w.U64(e.tag)
			w.U64(e.target)
			w.U64(e.stamp)
		}
	}
	w.Index(&prev, len(b.entries))
}

// DecodeState restores BTB state into a BTB of the same geometry; the
// entries the encoding skips decode invalid. It rejects an entry
// stamped after the clock.
func (b *BTB) DecodeState(r *enc.Reader) error {
	b.tick = r.U64()
	clear(b.entries)
	n := len(b.entries)
	for i := r.Index(-1, n); i < n; i = r.Index(i, n) {
		tag, target, stamp := r.U64(), r.U64(), r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if stamp > b.tick {
			return fmt.Errorf("cache: BTB entry %d stamped %d after the clock %d", i, stamp, b.tick)
		}
		b.entries[i] = btbEntry{tag: tag, target: target, stamp: stamp, valid: true}
	}
	return r.Err()
}

// EncodeState appends the history predictor's mutable state to w: the
// history register, then each counter off its reset value by index.
func (b *BHB) EncodeState(w *enc.Writer) {
	w.U64(b.history)
	prev := -1
	for i, v := range b.table {
		if v != b.reset[i] {
			w.Index(&prev, i)
			w.U64(uint64(v))
		}
	}
	w.Index(&prev, len(b.table))
}

// DecodeState restores predictor state into a BHB of the same geometry;
// the counters the encoding skips decode at their reset value. It
// rejects history bits beyond the register, a counter above the 2-bit
// maximum, and a counter written at its reset value.
func (b *BHB) DecodeState(r *enc.Reader) error {
	b.history = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if b.history&^b.histMsk != 0 {
		return fmt.Errorf("cache: BHB history %#x beyond %d bits", b.history, b.cfg.HistoryBits)
	}
	copy(b.table, b.reset)
	n := len(b.table)
	for i := r.Index(-1, n); i < n; i = r.Index(i, n) {
		v := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if v > 3 || uint8(v) == b.reset[i] {
			return fmt.Errorf("cache: BHB counter %d written as %d (reset %d, max 3)", i, v, b.reset[i])
		}
		b.table[i] = uint8(v)
	}
	return r.Err()
}

// EncodeState appends the prefetcher's mutable state — including the
// hidden stream table that no architected flush reaches — to w.
func (p *Prefetcher) EncodeState(w *enc.Writer) {
	w.Bool(p.enabled)
	w.U64(p.valid)
	w.U64(p.confirmed)
	w.U64(p.tick)
	w.Int(p.mru)
	w.U64s(p.pages)
	w.U64s(p.lastLine)
	w.U64s(p.stamps)
	for _, v := range p.count {
		w.I64(int64(v))
	}
	for _, v := range p.dir {
		w.I64(int64(v))
	}
}

// DecodeState restores prefetcher state into one of the same geometry,
// then rebuilds the page index and the age list, which are derived from
// the stream table and never encoded. It rejects a table those cannot
// be built from: valid or confirmed bits beyond the stream count, an
// MRU stream beyond it, two valid streams on one page, or a valid
// stream stamped after the clock.
func (p *Prefetcher) DecodeState(r *enc.Reader) error {
	p.enabled = r.Bool()
	p.valid = r.U64()
	p.confirmed = r.U64()
	p.tick = r.U64()
	p.mru = r.Int()
	pages := r.U64s()
	lastLine := r.U64s()
	stamps := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	// A stream table with no valid entries round-trips as nil slices.
	if (pages != nil && len(pages) != len(p.pages)) ||
		(lastLine != nil && len(lastLine) != len(p.lastLine)) ||
		(stamps != nil && len(stamps) != len(p.stamps)) {
		return fmt.Errorf("cache: prefetcher stream count mismatch")
	}
	if all := uint64(1)<<uint(len(p.pages)) - 1; (p.valid|p.confirmed)&^all != 0 {
		return fmt.Errorf("cache: prefetcher stream mask %#x/%#x exceeds %d streams", p.valid, p.confirmed, len(p.pages))
	}
	if p.mru < 0 || p.mru >= max(len(p.pages), 1) {
		return fmt.Errorf("cache: prefetcher MRU stream %d outside %d streams", p.mru, len(p.pages))
	}
	copyOrZero(p.pages, pages)
	copyOrZero(p.lastLine, lastLine)
	copyOrZero(p.stamps, stamps)
	for i := range p.count {
		p.count[i] = int32(r.I64())
	}
	for i := range p.dir {
		p.dir[i] = int8(r.I64())
	}
	if err := r.Err(); err != nil {
		return err
	}
	for v := p.valid; v != 0; v &= v - 1 {
		if i := bits.TrailingZeros64(v); p.stamps[i] > p.tick {
			return fmt.Errorf("cache: prefetcher stream %d stamped %d after the clock %d", i, p.stamps[i], p.tick)
		}
	}
	return p.rebuild()
}

func copyOrZero(dst, src []uint64) {
	if src == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, src)
}

// physicalUnits returns the number of physically distinct per-core unit
// instances (SMT siblings alias the same units and must be encoded once).
func (h *Hierarchy) physicalUnits() int {
	if h.cfg.SMTPairs {
		return h.cfg.Cores / 2
	}
	return h.cfg.Cores
}

// EncodeState appends the full hierarchy state to w: every physical
// cache, TLB, predictor and prefetcher, the per-core instruction
// prefetch and CAT state, the jitter RNG, and the DRAM row buffers.
// The tracer sink and memory hook are deliberately excluded — they are
// host-side attachments, re-established by the fork.
func (h *Hierarchy) EncodeState(w *enc.Writer) {
	w.U64(h.rngState)
	w.U64s(h.iPrevLine)
	w.U64s(h.llcMask)
	n := h.physicalUnits()
	for i := 0; i < n; i++ {
		h.l1d[i].EncodeState(w)
		h.l1i[i].EncodeState(w)
		h.itlb[i].EncodeState(w)
		h.dtlb[i].EncodeState(w)
		h.l2tlb[i].EncodeState(w)
		h.btb[i].EncodeState(w)
		h.bhb[i].EncodeState(w)
		h.dpf[i].EncodeState(w)
	}
	nl2 := 1
	if h.cfg.L2Private {
		nl2 = n
	}
	for i := 0; i < nl2; i++ {
		h.l2[i].EncodeState(w)
	}
	if h.l3 != nil {
		h.l3.EncodeState(w)
	}
	if h.dram != nil {
		w.U64s(h.dram.rows)
		for _, o := range h.dram.open {
			w.Bool(o)
		}
	}
}

// DecodeState restores hierarchy state into a hierarchy freshly built
// from the same configuration.
func (h *Hierarchy) DecodeState(r *enc.Reader) error {
	h.rngState = r.U64()
	iPrev := r.U64s()
	llc := r.U64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(iPrev) != len(h.iPrevLine) || len(llc) != len(h.llcMask) {
		return fmt.Errorf("cache: hierarchy core count mismatch")
	}
	copy(h.iPrevLine, iPrev)
	copy(h.llcMask, llc)
	n := h.physicalUnits()
	for i := 0; i < n; i++ {
		if err := h.l1d[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.l1i[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.itlb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.dtlb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.l2tlb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.btb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.bhb[i].DecodeState(r); err != nil {
			return err
		}
		if err := h.dpf[i].DecodeState(r); err != nil {
			return err
		}
	}
	nl2 := 1
	if h.cfg.L2Private {
		nl2 = n
	}
	for i := 0; i < nl2; i++ {
		if err := h.l2[i].DecodeState(r); err != nil {
			return err
		}
	}
	if h.l3 != nil {
		if err := h.l3.DecodeState(r); err != nil {
			return err
		}
	}
	if h.dram != nil {
		rows := r.U64s()
		if err := r.Err(); err != nil {
			return err
		}
		if rows != nil && len(rows) != len(h.dram.rows) {
			return fmt.Errorf("cache: DRAM bank count mismatch")
		}
		copyOrZero(h.dram.rows, rows)
		for i := range h.dram.open {
			h.dram.open[i] = r.Bool()
		}
	}
	return r.Err()
}
